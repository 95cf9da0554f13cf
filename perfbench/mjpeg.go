package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mjpeg"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/video"
	"repro/internal/workloads"
)

// Stream sizes. A live job streams liveFrames at 25 fps (2 s); the cluster
// jobs encode clusterFrames as fast as the program pulls them (every node
// keeps every generation, so peak memory grows with this count); a failover
// job severs the writer's link right after frame failoverFrames/2.
const (
	livePeriod     = time.Second / 25
	liveFrames     = 50
	clusterFrames  = 24
	failoverFrames = 30
	// traceCap bounds each tracer's span ring; a CIF frame dispatches about
	// 2 400 kernel instances.
	traceCap = 1 << 18
	// clusterNodes workers with one core each keep busy threads and TCP
	// connections at the host's two cores.
	clusterNodes = 2
)

// newStream generates n seeded CIF frames and their reference encodings.
// The reference encoder runs single-threaded here, untimed by the measuring
// window; its time per frame is the baseline.encode_ms_per_frame metric.
func (r *run) newStream(n int, fast bool, period time.Duration) (*stream, error) {
	src := video.NewCIFSource(n, r.seed)
	enc := &mjpeg.Encoder{FastDCT: fast}
	st := &stream{period: period}
	var encode time.Duration
	for i := 0; i < n; i++ {
		f, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("generating frame %d: %w", i, err)
		}
		t := time.Now()
		ref := enc.EncodeFrame(f)
		encode += time.Since(t)
		st.frames = append(st.frames, f)
		st.refs = append(st.refs, ref)
	}
	r.note("baseline.encode_ms_per_frame", ms(encode)/float64(n))
	return st, nil
}

// finishStream folds one MJPEG job into the pass: a job that errored,
// stalled, or whose final bitstream field differs from the reference fails
// every frame; otherwise each frame that was not written exactly once as
// its reference fails.
func (r *run) finishStream(j *frameJob, final []byte, jobErr error, perFrame bool) error {
	n := len(j.st.frames)
	failed := j.failedFrames()
	if jobErr == nil && !bytes.Equal(final, bytes.Join(j.st.refs, nil)) {
		jobErr = errors.New("final bitstream differs from the reference")
	}
	if jobErr != nil {
		failed = n
	}
	lat, active := j.latencies()
	if !j.firstNext.IsZero() {
		r.setups = append(r.setups, j.firstNext.Sub(j.start).Seconds())
	}
	if perFrame {
		r.attempted += n
		r.failed += failed
		r.items += n - failed
		r.lat = append(r.lat, lat...)
		r.active += active
	} else {
		r.attempted++
		if failed > 0 {
			r.failed++
		} else {
			r.items++
			d := time.Since(j.firstNext)
			r.lat = append(r.lat, ms(d))
			r.active += d
		}
	}
	if jobErr == nil && failed > 0 {
		jobErr = fmt.Errorf("%d of %d frames missing or wrong", failed, n)
	}
	return jobErr
}

// mjpegLive is the paper's real-time case: the Fig 8 program with the naive
// DCT on a local node, fed by a 25 fps open-loop source. Latency runs from
// each frame's due time to its encoded bytes reaching the writer.
func (r *run) mjpegLive() error {
	r.openLoop = true
	st, err := r.newStream(liveFrames, false, livePeriod)
	if err != nil {
		return err
	}
	r.loop(func() error {
		job := r.rec.begin("job", "mjpeg-live", 0)
		defer r.rec.end(job)
		j := newFrameJob(st, r.rec, job.ID)
		prog := workloads.MJPEG(workloads.MJPEGConfig{Source: &pacedSource{j: j}, Out: &sink{j: j}})
		lr, err := r.runLocal(prog, runtime.Options{}, job.ID)
		if lr.node != nil {
			defer lr.node.Release()
		}
		var final []byte
		if err == nil {
			final, err = workloads.MJPEGStream(lr.node, len(st.frames))
		}
		if err == nil {
			r.noteJobStream(j)
			r.noteReport(lr.rep)
			if lr.tracer != nil {
				r.noteCommitLag([]obs.NodeTrace{lr.tracer.NodeTrace("local", 1)})
				r.noteTracer(lr.tracer.NodeTrace("local", 1))
			}
		}
		return r.finishStream(j, final, err, true)
	})
	return nil
}

// noteJobStream records the source-seam metrics of one job, among them
// the median of write(a) minus the return of Next for frame a+1: negative
// when an encoded frame reaches the writer before the next frame is read,
// positive when it waits for that read.
func (r *run) noteJobStream(j *frameJob) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r.note("source.wait_ms_per_frame", float64(j.waitNs)/1e6/float64(len(j.st.frames)))
	r.note("source.late_ms_max", ms(j.lateMax))
	var gaps []float64
	for a := 0; a+1 < len(j.written); a++ {
		if !j.written[a].IsZero() && !j.returned[a+1].IsZero() {
			gaps = append(gaps, ms(j.written[a].Sub(j.returned[a+1])))
		}
	}
	if len(gaps) > 0 {
		r.note("source.write_after_next_read_ms", median(gaps))
	}
}

// mjpegCluster runs the same program with the AAN DCT on a master and two
// TCP-loopback workers in this process, with a saturating source.
func (r *run) mjpegCluster() error {
	st, err := r.newStream(clusterFrames, true, 0)
	if err != nil {
		return err
	}
	r.notePartition()
	r.loop(func() error { return r.clusterJob(st, false) })
	return nil
}

// mjpegFailover is mjpeg-cluster with failover on and no standby: the link
// of the worker that writes the stream is severed right after frame N/2 is
// written, so the survivor takes over, is rebuilt from frame 0 and receives
// the written generations replayed from the master's shadow.
func (r *run) mjpegFailover() error {
	st, err := r.newStream(failoverFrames, true, 0)
	if err != nil {
		return err
	}
	r.notePartition()
	r.loop(func() error { return r.clusterJob(st, true) })
	return nil
}

// clusterProgram builds the MJPEG program the master and the workers share
// (the structure must agree; only the workers' builds run kernels).
func clusterProgram(src video.Source, out *sink) *core.Program {
	cfg := workloads.MJPEGConfig{Source: src, FastDCT: true}
	if out != nil {
		cfg.Out = out
	}
	return workloads.MJPEG(cfg)
}

// noSource is the master's source: the master runs no kernels.
type noSource struct{}

func (noSource) Next() (*video.Frame, error) {
	return nil, errors.New("perfbench: the master's program must not run kernels")
}

// notePartition times sched.Partition standalone on the MJPEG final graph
// with the cluster's topology (median of a few repetitions).
func (r *run) notePartition() {
	fin := graph.BuildFinal(clusterProgram(noSource{}, nil))
	topo := sched.Topology{Bandwidth: 1}
	for i := 0; i < clusterNodes; i++ {
		topo = topo.Add(fmt.Sprintf("w%d", i), 1, 1)
	}
	var xs []float64
	for i := 0; i < 5; i++ {
		sp := r.rec.begin("partition", "", 0)
		t := time.Now()
		_, _, err := sched.Partition(fin, topo, sched.KL)
		d := time.Since(t)
		r.rec.end(sp)
		if err != nil {
			return
		}
		xs = append(xs, ms(d))
	}
	r.note("sched.partition_ms", median(xs))
}

// clusterJob runs one distributed encode over TCP loopback.
func (r *run) clusterJob(st *stream, failover bool) error {
	name := "mjpeg-cluster"
	if failover {
		name = "mjpeg-failover"
	}
	job := r.rec.begin("job", name, 0)
	defer r.rec.end(job)
	j := newFrameJob(st, r.rec, job.ID)
	if failover {
		j.severAt = len(st.frames) / 2
	}
	res, err := r.runCluster(j, failover)
	var final []byte
	if err == nil {
		final, err = workloads.MJPEGStream(res.Shadow, len(st.frames))
	}
	if res != nil && res.Shadow != nil {
		defer res.Shadow.Release()
	}
	if err == nil {
		var reps []*runtime.Report
		for id, rep := range res.Reports {
			if len(rep.Stalled) > 0 {
				err = fmt.Errorf("worker %s stalled kernel-ages: %v", id, rep.Stalled)
			}
			reps = append(reps, rep)
		}
		merged := runtime.MergeReports(reps...)
		r.noteReport(merged)
		r.noteDist(j, res, merged)
		if r.traced && !failover {
			r.noteCommitLag(res.Traces)
		}
		if failover {
			if len(res.DeadWorkers) != 1 {
				err = fmt.Errorf("dead workers %v, want exactly one", res.DeadWorkers)
			}
			r.noteFailover(j, res)
		}
	}
	return r.finishStream(j, final, err, !failover)
}

// runCluster starts the workers, accepts their links, wraps each of the
// master's conns and runs the master; it returns once every worker has
// ended. In failover mode exactly one worker must fail (the severed one).
func (r *run) runCluster(j *frameJob, failover bool) (*dist.MasterResult, error) {
	l, err := dist.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	wconns := make([]dist.Conn, clusterNodes)
	for w := range wconns {
		c, err := dist.DialTCP(l.Addr())
		if err != nil {
			for _, c := range wconns[:w] {
				c.Close()
			}
			return nil, err
		}
		wconns[w] = c
	}
	errc := make(chan error, clusterNodes)
	wtraces := make([]*obs.Tracer, clusterNodes)
	for w := range wconns {
		conn := wconns[w]
		cfg := dist.WorkerConfig{
			NodeID: fmt.Sprintf("w%d", w),
			Cores:  1,
			// A fresh source and sink per build: a rebuilt node restarts
			// from frame 0.
			Factory: func(string) (*core.Program, error) {
				k := &sink{j: j}
				if failover {
					k.sever = func() { conn.Close() }
				}
				return clusterProgram(&pacedSource{j: j}, k), nil
			},
		}
		if r.traced {
			cfg.Metrics = obs.NewRegistry()
			cfg.Tracer = obs.NewTracer(traceCap)
			wtraces[w] = cfg.Tracer
		}
		go func() {
			_, err := dist.RunWorker(cfg, conn)
			errc <- err
		}()
	}
	var lastStart atomic.Int64
	mconns := make([]dist.Conn, clusterNodes)
	bconns := make([]*benchConn, clusterNodes)
	var acceptErr error
	for i := range mconns {
		c, err := l.Accept()
		if err != nil {
			acceptErr = err
			break
		}
		bconns[i] = newBenchConn(c, r.rec, j.parent, func(m *dist.Msg) {
			if m.Kind == dist.MStart {
				lastStart.Store(time.Now().UnixNano())
			}
		})
		mconns[i] = bconns[i]
	}
	if acceptErr != nil {
		for _, c := range wconns {
			c.Close()
		}
		for i := 0; i < clusterNodes; i++ {
			<-errc
		}
		return nil, acceptErr
	}
	j.mu.Lock()
	j.masterConns = bconns
	j.mu.Unlock()

	mcfg := dist.MasterConfig{
		Prog:     clusterProgram(noSource{}, nil),
		Spec:     "perfbench-mjpeg",
		Method:   sched.KL,
		Failover: failover,
	}
	if r.traced {
		mcfg.Metrics = obs.NewRegistry()
		mcfg.Tracer = obs.NewTracer(traceCap)
		// Under failover the master's liveness monitor also runs while it
		// collects the workers' span buffers at shutdown, and a worker
		// encoding a large buffer misses its heartbeats and is declared
		// dead after the run has completed (BASELINE.md, known defects).
		// The failover pass therefore reads the workers' tracers in
		// process instead.
		mcfg.CollectTraces = !failover
	}
	t0 := time.Now()
	sp := r.rec.begin("master.run", "", j.parent)
	res, err := dist.RunMaster(mcfg, mconns)
	r.rec.end(sp)
	var werrs []error
	for i := 0; i < clusterNodes; i++ {
		if e := <-errc; e != nil {
			werrs = append(werrs, e)
		}
	}
	if err != nil {
		return res, fmt.Errorf("master: %w", err)
	}
	want := 0
	if failover {
		want = 1
	}
	if len(werrs) != want {
		return res, fmt.Errorf("%d worker(s) failed, want %d: %v", len(werrs), want, werrs)
	}
	if ls := lastStart.Load(); ls > 0 {
		r.note("dist.handshake_ms", ms(time.Unix(0, ls).Sub(t0)))
	}
	if mcfg.Tracer != nil {
		nodes := append([]obs.NodeTrace{mcfg.Tracer.NodeTrace("master", 1)}, res.Traces...)
		if !mcfg.CollectTraces {
			for w, t := range wtraces {
				nodes = append(nodes, t.NodeTrace(fmt.Sprintf("w%d", w), w+2))
			}
		}
		r.noteTracer(nodes...)
	}
	return res, nil
}

// noteDist records the transport, broker and control-plane metrics of one
// distributed job, from the master's wrapped conns and the merged report.
func (r *run) noteDist(j *frameJob, res *dist.MasterResult, merged *runtime.Report) {
	frames := float64(len(j.st.frames))
	var bytes, msgs, storeFrames, sendNs int64
	for _, c := range j.masterConns {
		st := c.Stats()
		bytes += st.SentBytes + st.RecvBytes
		for k := range c.sent {
			msgs += c.sent[k].Load() + c.recv[k].Load()
		}
		storeFrames += c.recv[dist.MStoreFrame].Load()
		sendNs += c.sendNs.Load()
	}
	r.note("dist.wire_bytes_per_frame", float64(bytes)/frames)
	r.note("dist.msgs_per_frame", float64(msgs)/frames)
	r.note("dist.store_frames_per_frame", float64(storeFrames)/frames)
	r.note("dist.master_send_ms_per_frame", float64(sendNs)/1e6/frames)
	r.note("sched.cut_cost", res.Cost.Cut)
	if s := merged.Stages; s != nil {
		r.note("dist.flight_ms", float64(s.FlightNs)/1e6)
		var idle, avail float64
		for _, rep := range res.Reports {
			if rep.Stages != nil {
				idle += float64(rep.Stages.IdleNs)
				avail += float64(rep.Wall.Nanoseconds()) * float64(rep.Stages.Workers)
			}
		}
		if avail > 0 {
			r.note("dist.worker_idle_ratio", idle/avail)
		}
	}
}

// noteFailover records the replay metrics of one failover job.
func (r *run) noteFailover(j *frameJob, res *dist.MasterResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.severed.IsZero() && !j.recovered.IsZero() {
		r.note("replay.recovery_ms", ms(j.recovered.Sub(j.severed)))
	}
	r.note("replay.gens", float64(res.Replayed))
	r.note("replay.bytes", float64(j.replayBytes))
	r.note("replay.dup_frames", float64(j.dups))
	r.note("replay.dead_workers", float64(len(res.DeadWorkers)))
}
