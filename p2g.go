// Package p2g is the public API of this P2G reproduction: a framework for
// distributed real-time processing of multimedia data (Espeland et al.,
// ICPP 2011).
//
// P2G programs are declarative dataflow graphs over aged, write-once,
// multi-dimensional fields. Kernels declare which field slices they fetch and
// store; the runtime's dependency analyzer derives all data and task
// parallelism from those declarations and dispatches kernel instances
// oldest-age-first across a worker pool.
//
// Build a program with NewBuilder (or compile kernel-language source with
// package repro/internal/lang via the p2gc/p2grun tools), then execute it:
//
//	prog := p2g.MulSum()
//	report, err := p2g.Run(prog, p2g.Options{Workers: 4, MaxAge: 10})
//
// The subpackages remain importable for advanced use; this package re-exports
// the surface a typical application needs.
package p2g

import (
	"io"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/field"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// Program-model types.
type (
	// Program is a complete P2G program: fields, kernels, timers.
	Program = core.Program
	// Builder assembles a Program fluently.
	Builder = core.Builder
	// KernelBuilder assembles one kernel declaration.
	KernelBuilder = core.KernelBuilder
	// Ctx is the execution context passed to kernel bodies.
	Ctx = core.Ctx
	// AgeExpr is an age coordinate (AgeVar / AgeAt).
	AgeExpr = core.AgeExpr
	// IndexSpec is an index coordinate (Idx / Lit).
	IndexSpec = core.IndexSpec
	// Kind enumerates field element types.
	Kind = field.Kind
	// Value is the dynamic scalar/array value representation.
	Value = field.Value
	// Array is a local multi-dimensional array.
	Array = field.Array
)

// Field element kinds.
const (
	Int32   = field.Int32
	Int64   = field.Int64
	Float32 = field.Float32
	Float64 = field.Float64
	Uint8   = field.Uint8
	Bool    = field.Bool
	String  = field.String
	Any     = field.Any
)

// NewBuilder starts a program with the given name.
func NewBuilder(name string) *Builder { return core.NewBuilder(name) }

// Int32Value wraps an int32 scalar.
func Int32Value(v int32) Value { return field.Int32Val(v) }

// Int64Value wraps an int64 scalar.
func Int64Value(v int64) Value { return field.Int64Val(v) }

// Float64Value wraps a float64 scalar.
func Float64Value(v float64) Value { return field.Float64Val(v) }

// AnyValue wraps an arbitrary Go payload.
func AnyValue(v any) Value { return field.AnyVal(v) }

// NewArray creates a local array with the given element kind and extents.
func NewArray(kind Kind, extents ...int) *Array { return field.NewArray(kind, extents...) }

// AgeVar returns the age expression a+off over the kernel's age variable.
func AgeVar(off int) AgeExpr { return core.AgeVar(off) }

// AgeAt returns an absolute age expression.
func AgeAt(age int) AgeExpr { return core.AgeAt(age) }

// Idx returns an index coordinate bound to an index variable.
func Idx(name string) IndexSpec { return core.Idx(name) }

// IdxOff returns an index coordinate bound to an index variable plus a
// constant offset (wavefront dependencies, e.g. pred(a)[x+1][y]).
func IdxOff(name string, off int) IndexSpec { return core.IdxOff(name, off) }

// Lit returns a constant index coordinate.
func Lit(v int) IndexSpec { return core.Lit(v) }

// All returns a slab coordinate spanning a whole dimension (one macroblock
// row per instance, e.g. frames(a)[b][]).
func All() IndexSpec { return core.All() }

// Fuse merges kernel down into kernel up (the LLS task-combining transform
// of the paper's figure 4).
func Fuse(p *Program, up, down string) (*Program, error) { return core.Fuse(p, up, down) }

// Runtime types.
type (
	// Options configures an execution node.
	Options = runtime.Options
	// Node is a single execution node.
	Node = runtime.Node
	// Report is the per-run instrumentation summary (Tables II/III).
	Report = runtime.Report
	// KernelStats is one row of the instrumentation report.
	KernelStats = runtime.KernelStats
	// TimerSet holds a program's global deadline timers.
	TimerSet = deadline.TimerSet
	// Clock abstracts time for deadline tests.
	Clock = deadline.Clock
)

// Observability types (set Options.Metrics / Options.Tracer, or serve them
// with NewObsServer).
type (
	// MetricsRegistry collects counters, gauges and latency histograms.
	MetricsRegistry = obs.Registry
	// Tracer records kernel-instance lifecycle spans into a bounded ring,
	// exportable as Chrome trace_event JSON (chrome://tracing, Perfetto).
	Tracer = obs.Tracer
	// ObsServer serves the live /metricz, /statusz and /tracez endpoints.
	ObsServer = obs.Server
	// StageTotals is the per-stage latency attribution of a run
	// (Report.Stages): where worker-seconds and instance lifetimes went.
	StageTotals = runtime.StageTotals
	// NodeTrace is one node's span buffer with the clock alignment the
	// merged cluster trace needs.
	NodeTrace = obs.NodeTrace
)

// WriteMergedChromeTrace merges span bundles from several nodes into one
// clock-aligned Chrome trace_event file (one process per node).
func WriteMergedChromeTrace(w io.Writer, nodes []NodeTrace) error {
	return obs.WriteMergedChromeTrace(w, nodes)
}

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer creates a kernel-instance tracer holding up to capacity spans
// (<=0 selects the default capacity).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewObsServer creates an unstarted introspection HTTP server; any of reg,
// tracer and status may be nil.
func NewObsServer(addr string, reg *MetricsRegistry, tracer *Tracer, status func() any) *ObsServer {
	return obs.NewServer(addr, reg, tracer, status)
}

// NewNode builds an execution node for a program.
func NewNode(p *Program, opts Options) (*Node, error) { return runtime.NewNode(p, opts) }

// Run executes a program on a fresh node and returns its report.
func Run(p *Program, opts Options) (*Report, error) { return runtime.Run(p, opts) }

// NewFakeClock returns a manually advanced clock for deadline testing.
func NewFakeClock() *deadline.FakeClock { return deadline.NewFakeClock() }

// Dependency-graph types (figures 2-4).
type (
	// Intermediate is the implicit static dependency graph.
	Intermediate = graph.Intermediate
	// Final is the merged kernel-to-kernel graph.
	Final = graph.Final
	// DCDAG is the age-unrolled dynamic dependency graph.
	DCDAG = graph.DCDAG
)

// BuildIntermediate derives the intermediate implicit static graph.
func BuildIntermediate(p *Program) *Intermediate { return graph.BuildIntermediate(p) }

// BuildFinal derives the final implicit static graph.
func BuildFinal(p *Program) *Final { return graph.BuildFinal(p) }

// Unroll expands the final graph into a DC-DAG over ages 0..maxAge.
func Unroll(g *Final, maxAge int) *DCDAG { return graph.Unroll(g, maxAge) }

// Workload constructors (the paper's evaluation programs).
type (
	// MJPEGConfig parameterizes the Motion JPEG workload.
	MJPEGConfig = workloads.MJPEGConfig
	// KMeansConfig parameterizes the K-means workload.
	KMeansConfig = workloads.KMeansConfig
	// WavefrontConfig parameterizes the intra-prediction workload.
	WavefrontConfig = workloads.WavefrontConfig
	// SIFTConfig parameterizes the SIFT front-end workload.
	SIFTConfig = workloads.SIFTConfig
)

// MulSum builds the figure 5 mul2/plus5 example program.
func MulSum() *Program { return workloads.MulSum() }

// MJPEG builds the figure 8 Motion JPEG encoding program.
func MJPEG(cfg MJPEGConfig) *Program { return workloads.MJPEG(cfg) }

// KMeans builds the figure 7 K-means clustering program.
func KMeans(cfg KMeansConfig) *Program { return workloads.KMeans(cfg) }

// Wavefront builds the §III intra-prediction program (wavefront-dependent
// sub-blocks).
func Wavefront(cfg WavefrontConfig) *Program { return workloads.Wavefront(cfg) }

// SIFT builds the §III SIFT front-end program (multi-scale blur, DoG,
// scale-space extrema).
func SIFT(cfg SIFTConfig) *Program { return workloads.SIFT(cfg) }

// KMeansOptions returns runtime options bounding K-means to cfg.Iter
// iterations.
func KMeansOptions(cfg KMeansConfig, workers int) Options {
	return workloads.KMeansOptions(cfg, workers)
}

// MJPEGStream collects the encoded frames from a finished node in age order.
func MJPEGStream(n *Node, frames int) ([]byte, error) { return workloads.MJPEGStream(n, frames) }
