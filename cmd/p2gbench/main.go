// p2gbench regenerates every table and figure of the paper's evaluation
// (§VIII), plus the ablations DESIGN.md calls out. Each experiment prints
// the rows/series the paper reports; absolute numbers are hardware-dependent
// but the shapes are the reproduction target (see EXPERIMENTS.md).
//
// Usage:
//
//	p2gbench -experiment all            # everything (several minutes)
//	p2gbench -experiment fig9 -runs 10  # one experiment, paper-parity runs
//
// Experiments: tableI fig9 fig10 tableII tableIII baseline granularity
// fusion dct partition dist golden wavefront
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/lang"
	"repro/internal/obs"
)

var (
	runs        = flag.Int("runs", 3, "repetitions per configuration (paper: 10)")
	maxWorkers  = flag.Int("maxworkers", 8, "largest worker-thread count in sweeps")
	frames      = flag.Int("frames", 50, "MJPEG frames (paper: 50)")
	kmN         = flag.Int("n", 2000, "K-means datapoints (paper: 2000)")
	kmK         = flag.Int("k", 100, "K-means clusters (paper: 100)")
	kmIters     = flag.Int("iters", 10, "K-means iterations (paper: 10)")
	simCores    = flag.Int("simcores", 8, "core count of the simulated machines for fig9/fig10")
	tracePath   = flag.String("trace", "", "write a Chrome trace_event JSON of every instrumented run's kernel instances")
	attrFlag    = flag.Bool("attr", false, "print per-stage latency attribution (ready-wait, queue-wait, fetch, exec, store, idle) after every instrumented run")
	metricsAddr = flag.String("metrics-addr", "", "serve /metricz, /statusz and /tracez on this address while experiments run, e.g. :9090")
	shardsFlag  = flag.Int("shards", 0, "dependency-analyzer shard count; 1 is the paper's single analyzer thread (0: auto from GOMAXPROCS)")
	backendFlag = flag.String("backend", "bytecode", "kernel-language back-end for .p2g experiments: bytecode (register VM) or closure (reference interpreter)")
)

// langOptions maps the -backend flag onto lang.Options.
func langOptions() lang.Options {
	if *backendFlag == "closure" {
		return lang.Options{Backend: lang.BackendClosure}
	}
	return lang.Options{Backend: lang.BackendBytecode}
}

// benchReg and benchTracer instrument every experiment's instrumented runs
// when the corresponding flag is set; both nil (zero overhead) otherwise.
var (
	benchReg    *obs.Registry
	benchTracer *obs.Tracer
)

type experiment struct {
	name string
	desc string
	run  func() error
}

func main() {
	which := flag.String("experiment", "all", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	if *backendFlag != "bytecode" && *backendFlag != "closure" {
		fmt.Fprintf(os.Stderr, "p2gbench: unknown -backend %q (want bytecode or closure)\n", *backendFlag)
		os.Exit(2)
	}

	if *tracePath != "" {
		benchTracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	if *attrFlag {
		// Attribution needs the stage histograms, so -attr implies a live
		// registry even without -metrics-addr.
		benchReg = obs.NewRegistry()
	}
	var current string
	if *metricsAddr != "" && benchReg == nil {
		benchReg = obs.NewRegistry()
	}
	if *metricsAddr != "" {
		srv := obs.NewServer(*metricsAddr, benchReg, benchTracer, func() any {
			return map[string]string{"tool": "p2gbench", "experiment": current}
		})
		if err := srv.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "p2gbench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Stop()
		fmt.Fprintf(os.Stderr, "p2gbench: serving introspection on http://%s\n", srv.Addr())
	}

	experiments := []experiment{
		{"tableI", "test machine description (paper Table I)", tableI},
		{"golden", "figure 5 mul/sum golden output (§V)", golden},
		{"fig9", "MJPEG running time vs worker threads (paper figure 9)", fig9},
		{"fig10", "K-means running time vs worker threads (paper figure 10)", fig10},
		{"tableII", "MJPEG micro-benchmark (paper Table II)", tableII},
		{"tableIII", "K-means micro-benchmark (paper Table III)", tableIII},
		{"baseline", "P2G vs standalone single-threaded MJPEG encoder (§VIII-A)", baseline},
		{"granularity", "ablation: data-granularity coarsening (§V-A, §VIII-B)", granularity},
		{"fusion", "ablation: kernel fusion, figure 4 Age=3 (§V-A)", fusion},
		{"dct", "ablation: naive vs AAN fast DCT (§VIII-A, ref [2])", dct},
		{"partition", "extension: HLS partitioning quality (§IV)", partition},
		{"dist", "extension: distributed execution nodes (figure 1)", distExp},
		{"wavefront", "§III wavefront intra-prediction in the kernel language, back-end A/B", wavefrontExp},
	}
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}
	ran := false
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		ran = true
		current = e.name
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "p2gbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "p2gbench: unknown experiment %q (use -list)\n", *which)
		os.Exit(2)
	}
	if benchTracer != nil {
		if err := writeTrace(benchTracer, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "p2gbench: %v\n", err)
			os.Exit(1)
		}
		if n := benchTracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "p2gbench: trace ring overflowed, oldest %d spans dropped\n", n)
		}
	}
}

func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func tableI() error {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	fmt.Printf("%-20s %s\n", "CPU-name", model)
	fmt.Printf("%-20s %d\n", "Logical threads", runtime.NumCPU())
	fmt.Printf("%-20s %s/%s\n", "Platform", runtime.GOOS, runtime.GOARCH)
	fmt.Printf("%-20s %s\n", "Go version", runtime.Version())
	fmt.Printf("(paper Table I: 4-way Core i7 860 2.8GHz and 8-way Opteron 8218 2.6GHz;\n")
	fmt.Printf(" fig9/fig10 extrapolate measured per-instance costs to %d cores via the\n", *simCores)
	fmt.Printf(" offline model in internal/sim, as §V-A suggests)\n")
	return nil
}
