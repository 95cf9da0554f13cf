package main

import (
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// kmeansJob is the paper's Table III size; the seed comes from the run.
var kmeansJob = workloads.KMeansConfig{N: 2000, K: 100, Iter: 10, Dim: 2}

// localRun is one program run on a local node.
type localRun struct {
	rep    *runtime.Report
	node   *runtime.Node // released by the caller once checked
	tracer *obs.Tracer   // nil when untraced
	ready  time.Time     // set-up ends when Run is called
}

// runLocal builds a node for prog with Workers = nproc and runs it. A run
// whose report lists stalled kernel-ages is an error.
func (r *run) runLocal(prog *core.Program, opts runtime.Options, parent int64) (localRun, error) {
	var lr localRun
	opts.Workers = goruntime.NumCPU()
	if r.traced {
		opts.Metrics = obs.NewRegistry()
		lr.tracer = obs.NewTracer(traceCap)
		opts.Tracer = lr.tracer
	}
	node, err := runtime.NewNode(prog, opts)
	if err != nil {
		return lr, err
	}
	lr.node = node
	lr.ready = time.Now()
	sp := r.rec.begin("node.run", "", parent)
	lr.rep, err = node.Run()
	r.rec.end(sp)
	if err == nil && len(lr.rep.Stalled) > 0 {
		err = fmt.Errorf("stalled kernel-ages: %v", lr.rep.Stalled)
	}
	return lr, err
}

// finishJob folds one job of a job-per-item workload into the pass: its
// set-up time, and its run time from the end of set-up to the verified
// result unless it failed.
func (r *run) finishJob(start, ready time.Time, err error) {
	r.attempted++
	if !ready.IsZero() {
		r.setups = append(r.setups, ready.Sub(start).Seconds())
	}
	if err != nil || ready.IsZero() {
		r.failed++
		return
	}
	d := time.Since(ready)
	r.items++
	r.lat = append(r.lat, ms(d))
	r.active += d
}

// kmeans runs K-means jobs back to back in a closed loop; each job builds
// the program, runs it on a local node and checks its final centroids
// against kmeans.Sequential.
func (r *run) kmeans() error {
	cfg := kmeansJob
	cfg.Seed = r.seed
	points := kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed)
	t := time.Now()
	ref := kmeans.Sequential(points, cfg.K, cfg.Iter)
	r.note("baseline.kmeans_ms", ms(time.Since(t)))
	r.loop(func() error {
		job := r.rec.begin("job", "kmeans", 0)
		defer r.rec.end(job)
		start := time.Now()
		opts := workloads.KMeansOptions(cfg, 0)
		opts.Output = io.Discard
		lr, err := r.runLocal(workloads.KMeans(cfg), opts, job.ID)
		if lr.node != nil {
			defer lr.node.Release()
		}
		if err == nil {
			var got []kmeans.Point
			got, err = workloads.KMeansCentroids(lr.node, cfg.Iter)
			if err == nil && !sameCentroids(got, ref.Centroids) {
				err = errors.New("centroids differ from kmeans.Sequential")
			}
		}
		r.finishJob(start, lr.ready, err)
		if err == nil {
			r.noteReport(lr.rep)
			r.noteTracer(lr.tracer.NodeTrace("local", 1))
		}
		return err
	})
	return nil
}

func sameCentroids(a, b []kmeans.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}
