// Command p2gperf is the P2G benchmark: it runs one workload for a fixed
// time, checks every output against a reference, and prints the metrics.
//
//	p2gperf --workload mjpeg-live --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics, measured with all program instrumentation off. With
// --trace 1 the workload runs twice with the same seed — untraced, then with
// a metrics registry, tracers and the benchmark's own seam spans — and the
// JSON carries the per-layer metrics. A human-readable block with
// provenance precedes the JSON. Workloads and metrics are described in
// BASELINE.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric. The end-to-end and per-layer lists
// below are the ones BENCHMARK.json declares.
type metricSpec struct {
	name, unit string
	// agg reduces the per-job samples of a per-layer metric: "median"
	// (default), "max" or "sum".
	agg string
}

var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "item_latency_ms", unit: "ms"},
	{name: "cpu_ms_per_item", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer lists the per-layer metrics. A layer a workload does not
// exercise reports 0. Counts and times without "per" in their name are per
// job (one program run).
var perLayer = []metricSpec{
	// source seam
	{name: "source.wait_ms_per_frame", unit: "ms"},
	{name: "source.late_ms_max", unit: "ms", agg: "max"},
	{name: "source.write_after_next_read_ms", unit: "ms"},
	// dispatch and scheduler
	{name: "runtime.instances", unit: "count"},
	{name: "runtime.dispatch_ns_per_inst", unit: "ns"},
	{name: "runtime.steals", unit: "count"},
	{name: "runtime.max_queue_depth", unit: "count", agg: "max"},
	{name: "runtime.stage.queue_wait_ms", unit: "ms"},
	{name: "runtime.stage.idle_ms", unit: "ms"},
	// dependency analyzer
	{name: "runtime.analyze_busy_ratio", unit: "ratio"},
	{name: "runtime.analyze_max_shard_ratio", unit: "ratio"},
	{name: "runtime.events_per_batch", unit: "count"},
	{name: "runtime.max_event_backlog", unit: "count", agg: "max"},
	{name: "runtime.stage.ready_wait_ms", unit: "ms"},
	// completion-to-consumer lag
	{name: "runtime.frame_commit_lag_p50_ms", unit: "ms"},
	{name: "runtime.frame_commit_lag_tail_ms", unit: "ms"},
	// field store, fetch and memory
	{name: "runtime.stage.fetch_ms", unit: "ms"},
	{name: "runtime.stage.store_ms", unit: "ms"},
	{name: "field.mem_elems_end", unit: "count", agg: "max"},
	{name: "go.alloc_bytes_per_item", unit: "B"},
	{name: "go.mallocs_per_item", unit: "count"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	// kernel bodies
	{name: "runtime.stage.exec_ms", unit: "ms"},
	{name: "runtime.stage.coverage", unit: "ratio"},
	{name: "kernel.yDCT.exec_us", unit: "us"},
	{name: "kernel.vlc_write.exec_us", unit: "us"},
	{name: "kernel.read_splityuv.exec_us", unit: "us"},
	{name: "kernel.assign.exec_us", unit: "us"},
	{name: "kernel.assign.dispatch_us", unit: "us"},
	// kernel language
	{name: "lang.compile_ms", unit: "ms"},
	{name: "lang.fallback_kernels", unit: "count", agg: "max"},
	{name: "kernel.dct.exec_us", unit: "us"},
	// transport and broker
	{name: "dist.wire_bytes_per_frame", unit: "B"},
	{name: "dist.msgs_per_frame", unit: "count"},
	{name: "dist.store_frames_per_frame", unit: "count"},
	{name: "dist.master_send_ms_per_frame", unit: "ms"},
	{name: "dist.flight_ms", unit: "ms"},
	{name: "dist.worker_idle_ratio", unit: "ratio"},
	// control plane
	{name: "dist.handshake_ms", unit: "ms"},
	{name: "sched.partition_ms", unit: "ms"},
	{name: "sched.cut_cost", unit: "count"},
	// replay
	{name: "replay.recovery_ms", unit: "ms"},
	{name: "replay.gens", unit: "count"},
	{name: "replay.bytes", unit: "B"},
	{name: "replay.dup_frames", unit: "count"},
	{name: "replay.dead_workers", unit: "count", agg: "max"},
	// observability
	{name: "obs.overhead_ratio", unit: "ratio"},
	{name: "obs.spans", unit: "count"},
	{name: "obs.dropped_spans", unit: "count", agg: "sum"},
	// single-threaded baselines
	{name: "baseline.encode_ms_per_frame", unit: "ms"},
	{name: "baseline.kmeans_ms", unit: "ms"},
}

// runners maps each workload name to the function that runs it.
var runners = map[string]func(*run) error{
	"mjpeg-live":     (*run).mjpegLive,
	"mjpeg-cluster":  (*run).mjpegCluster,
	"kmeans":         (*run).kmeans,
	"lang-dct":       (*run).langDCT,
	"mjpeg-failover": (*run).mjpegFailover,
}

// run is one measured pass of a workload.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	rec      *recorder // seam spans; nil when untraced

	attempted, failed int
	jobs              int
	setups            []float64 // seconds per job
	lat               []float64 // ms per item
	items             int       // items completed
	active            time.Duration
	cpu               time.Duration
	mem0, mem1        goruntime.MemStats
	layer             map[string][]float64
	errs              []string
	openLoop          bool // items are due on a schedule the source sets
}

// note adds one per-job sample of a per-layer metric.
func (r *run) note(name string, v float64) {
	r.layer[name] = append(r.layer[name], v)
}

// loop runs job back to back until the measuring window has elapsed (at
// least once), with process CPU and Go memory statistics taken around them.
func (r *run) loop(job func() error) {
	goruntime.ReadMemStats(&r.mem0)
	cpu0 := cpuTime()
	start := time.Now()
	for r.jobs == 0 || time.Since(start) < r.window {
		// Collecting between jobs keeps one job's garbage from inflating
		// the next job's heap, so peak RSS reflects a single job.
		goruntime.GC()
		r.jobs++
		if err := job(); err != nil {
			r.errs = append(r.errs, fmt.Sprintf("job %d: %v", r.jobs, err))
		}
	}
	r.cpu = cpuTime() - cpu0
	goruntime.ReadMemStats(&r.mem1)
}

func (r *run) perItem(x float64) float64 {
	if r.attempted == 0 {
		return 0
	}
	return x / float64(r.attempted)
}

// latencyQuantile is the quantile of item latency that is gated. With an
// open-loop source at half capacity no queue builds; latency runs from each
// item's due time and has two modes (frames that wait for the next read and
// frames that do not) whose mix drifts from run to run, so the third
// quartile, which stays in the upper mode, is the steady reading. In a
// closed loop or behind a saturating source every latency also holds a
// queue whose depth the scheduler sets, and on this shared host other
// tenants' load stretches that queue for seconds at a time; the lower
// quartile tracks the program more than its neighbours (BASELINE.md). The
// quartiles, median, tail and throughput are printed beside it.
func (r *run) latencyQuantile() float64 {
	if r.openLoop {
		return 0.75
	}
	return 0.25
}

// endToEnd returns the gated end-to-end metrics.
func (r *run) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         median(r.setups),
		"item_latency_ms": quantile(r.lat, r.latencyQuantile()),
		"cpu_ms_per_item": r.perItem(ms(r.cpu)),
		"peak_rss_mb":     peakRSSMB(),
	}
}

func (r *run) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		xs := r.layer[m.name]
		switch m.agg {
		case "max":
			out[m.name] = maxOf(xs)
		case "sum":
			out[m.name] = sum(xs)
		default:
			out[m.name] = median(xs)
		}
	}
	return out
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]valueAndUnit `json:"metrics"`
}

type valueAndUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed (the only input to the generators)")
	seconds := flag.Int("seconds", 10, "measuring window per pass")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	flag.Parse()
	drive, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: p2gperf --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	// A wedged job (a distributed run that never quiesces, say) must still
	// end the process, with a failure, inside three minutes.
	go func() {
		time.Sleep(170 * time.Second)
		fmt.Fprintln(os.Stderr, "p2gperf: watchdog: run exceeded 170s")
		os.Exit(1)
	}()

	window := time.Duration(*seconds) * time.Second
	base := &run{workload: *workload, seed: *seed, window: window, layer: map[string][]float64{}}
	if err := drive(base); err != nil {
		fatal(err)
	}
	printHuman(base, "untraced")
	final, values, specs := base, base.endToEnd(), endToEnd
	if *trace == 1 {
		tr := &run{workload: *workload, seed: *seed, window: window, traced: true, rec: newRecorder(), layer: map[string][]float64{}}
		if err := drive(tr); err != nil {
			fatal(err)
		}
		// Go allocation counters come from the untraced pass: the tracer's
		// own allocations would otherwise be charged to the field layer.
		// So does the write-after-next-read gap, which tracing distorts by
		// slowing the pipeline behind the source.
		tr.layer["source.write_after_next_read_ms"] = base.layer["source.write_after_next_read_ms"]
		tr.note("go.alloc_bytes_per_item", base.perItem(float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc)))
		tr.note("go.mallocs_per_item", base.perItem(float64(base.mem1.Mallocs-base.mem0.Mallocs)))
		tr.note("go.gc_cycles", float64(base.mem1.NumGC-base.mem0.NumGC)/float64(base.jobs))
		tr.note("go.gc_pause_ms", ms(time.Duration(base.mem1.PauseTotalNs-base.mem0.PauseTotalNs))/float64(base.jobs))
		if b, t := base.perItem(ms(base.cpu)), tr.perItem(ms(tr.cpu)); b > 0 {
			tr.note("obs.overhead_ratio", t/b)
		}
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", *workload, *seed)
		if err := tr.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "p2gperf: writing spans: %v\n", err)
		} else {
			fmt.Printf("%d seam spans written to %s\n", tr.rec.count(), path)
		}
		printHuman(tr, "traced")
		final, values, specs = tr, tr.perLayer(), perLayer
		// Both passes must be correct.
		final.attempted += base.attempted
		final.failed += base.failed
	}
	res := result{
		Correct:   final.failed == 0 && final.attempted > 0,
		Attempted: final.attempted,
		Failed:    final.failed,
		Metrics:   map[string]valueAndUnit{},
	}
	for _, m := range specs {
		res.Metrics[m.name] = valueAndUnit{Value: values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "p2gperf: %v\n", err)
	os.Exit(1)
}

// commit names the source revision when the checkout is a git repository.
var commit = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
})

// sourceDigest identifies the code under test where no commit is known: a
// SHA-256 prefix over the module file and every file under internal/ and
// perfbench/, in path order.
var sourceDigest = sync.OnceValue(func() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
})

// printHuman prints provenance and the metrics of one pass under the names
// BASELINE.md uses.
func printHuman(r *run, pass string) {
	fmt.Printf("== p2gperf workload=%s seed=%d pass=%s\n", r.workload, r.seed, pass)
	fmt.Printf("provenance: commit=%s source=%s go=%s os/arch=%s/%s nproc=%d gomaxprocs=%d seed=%d window=%v jobs=%d attempted=%d failed=%d\n",
		commit(), sourceDigest(), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, goruntime.NumCPU(), goruntime.GOMAXPROCS(0),
		r.seed, r.window, r.jobs, r.attempted, r.failed)
	e := r.endToEnd()
	tl, pct := tail(r.lat)
	failedRatio, perS := 0.0, 0.0
	if r.attempted > 0 {
		failedRatio = float64(r.failed) / float64(r.attempted)
	}
	if r.active > 0 {
		perS = float64(r.items) / r.active.Seconds()
	}
	line := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-28s %14.4f %-8s %s\n", name, v, unit, note)
	}
	line("setup_s", e["setup_s"], "s", fmt.Sprintf("median of %d set-ups", len(r.setups)))
	item, scale, unit := "frame_latency", 1.0, "ms"
	if r.workload != "mjpeg-live" && r.workload != "mjpeg-cluster" {
		item, scale, unit = "run", 1e-3, "s"
	}
	line(item+"_p25_"+unit, quantile(r.lat, 0.25)*scale, unit, fmt.Sprintf("n=%d", len(r.lat)))
	line(item+"_p50_"+unit, median(r.lat)*scale, unit, fmt.Sprintf("n=%d", len(r.lat)))
	line(item+"_p75_"+unit, quantile(r.lat, 0.75)*scale, unit, fmt.Sprintf("n=%d", len(r.lat)))
	line("item_latency_ms", e["item_latency_ms"], "ms", fmt.Sprintf("gated: p%.0f", 100*r.latencyQuantile()))
	line(item+"_tail_"+unit, tl*scale, unit, fmt.Sprintf("p%.1f, n=%d, %d beyond", pct, len(r.lat), tailMinBeyond))
	if item == "run" {
		line("jobs_per_s", perS, "jobs/s", "")
	} else {
		line("frames_per_s", perS, "frames/s", "from the first Next to the last write, per job")
	}
	if r.workload == "mjpeg-failover" {
		line("recovery_s", median(r.layer["replay.recovery_ms"])/1e3, "s", fmt.Sprintf("median of %d", len(r.layer["replay.recovery_ms"])))
	}
	line("cpu_ms_per_item", e["cpu_ms_per_item"], "ms", "")
	line("peak_rss_mb", e["peak_rss_mb"], "MB", "")
	line("failed_ratio", failedRatio, "ratio", fmt.Sprintf("%d/%d", r.failed, r.attempted))
	if r.traced {
		layer := r.perLayer()
		for _, m := range perLayer {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, layer[m.name], m.unit)
		}
	}
	for i, e := range r.errs {
		if i == 3 {
			fmt.Printf("  ... %d more failed jobs\n", len(r.errs)-i)
			break
		}
		fmt.Printf("  error: %s\n", e)
	}
}
