package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// instance states.
const (
	instWaiting uint8 = iota
	instQueued
	instRunning
	instDone
)

// instState tracks one kernel instance: its index-variable values, which
// fetches are satisfied (a bitmask) and its lifecycle state. An instance is
// dispatched exactly once, when its mask is full.
type instState struct {
	coords []int
	mask   uint32
	st     uint8
	// readyNs/createdNs are node-clock-relative lifecycle stamps (see
	// Node.nowNs), recorded only when tracing or stage metrics are enabled
	// (Node.stamp); the ready queue's mutex orders the analyzer's writes
	// before the worker's reads. createdNs is the instance's registration
	// time, readyNs the time its last dependency was satisfied — their
	// difference is the analyzer-ready-wait stage.
	readyNs   int64
	createdNs int64
}

// coordKey packs index-variable values into a map key. Extents are limited to
// 16 bits per dimension and four dimensions, which comfortably covers the
// paper's workloads (the largest domain is 1584 macroblocks, rank 1).
func coordKey(coords []int) int64 {
	var k int64
	for _, c := range coords {
		k = k<<16 | int64(c&0xffff)
	}
	return k
}

// varBind records where an index variable gets its range: dimension dim of
// field fs at the age given by age (evaluated per tracker age).
type varBind struct {
	fs  *fieldState
	dim int
	age core.AgeExpr
}

// counterWithBaseline wraps a registry counter together with its value at
// node construction time. A shared registry may carry counts from earlier
// nodes; Own projects only this node's contribution, which is what reports
// and the adaptive-granularity decision need.
type counterWithBaseline struct {
	c    *obs.Counter
	base int64
}

func newBaselined(c *obs.Counter) counterWithBaseline {
	return counterWithBaseline{c: c, base: c.Load()}
}

// Add increments the underlying counter.
func (b counterWithBaseline) Add(d int64) { b.c.Add(d) }

// Own returns the counter's growth since node construction.
func (b counterWithBaseline) Own() int64 { return b.c.Load() - b.base }

// histWithBase wraps a registry histogram together with its sum/count at
// node construction time, the histogram analogue of counterWithBaseline: a
// shared registry may carry observations from earlier nodes, and the stage
// attribution report must project only this node's contribution. The zero
// value (nil histogram) is a disabled handle whose methods are no-ops.
type histWithBase struct {
	h         *obs.Histogram
	baseSum   int64
	baseCount int64
}

func newHistBase(h *obs.Histogram) histWithBase {
	return histWithBase{h: h, baseSum: h.SumNs(), baseCount: h.Count()}
}

// Observe records one duration on the underlying histogram.
func (b histWithBase) Observe(d time.Duration) { b.h.Observe(d) }

// enabled reports whether the handle points at a live histogram.
func (b histWithBase) enabled() bool { return b.h != nil }

// OwnNs returns the summed nanoseconds observed since node construction.
func (b histWithBase) OwnNs() int64 { return b.h.SumNs() - b.baseSum }

// OwnCount returns the observations recorded since node construction.
func (b histWithBase) OwnCount() int64 { return b.h.Count() - b.baseCount }

// idxTerm is one dimension of a precompiled fetch/store index expression:
// coords[v]+off, or the literal off when v < 0. Compiling the terms at
// NewNode time removes the per-instance map[string]int the dispatch path
// used to build for IndexSpec evaluation.
type idxTerm struct {
	v   int // index-variable position in IndexVars, or -1 for a literal
	off int
}

func (t idxTerm) eval(coords []int) int {
	if t.v < 0 {
		return t.off
	}
	return coords[t.v] + t.off
}

// evalTerms evaluates a term list into dst (len(dst) == len(terms)) and
// returns it; dst is caller-owned scratch, so the hot path never allocates.
func evalTerms(dst []int, terms []idxTerm, coords []int) []int {
	for d, t := range terms {
		dst[d] = t.eval(coords)
	}
	return dst
}

// compileSpec precompiles one index spec against the kernel's index-variable
// list. All-kind (slab) specs are rejected by the caller.
func compileSpec(s core.IndexSpec, vars []string) idxTerm {
	if s.Kind == core.IndexVarKind {
		return idxTerm{v: varIndex(vars, s.Var), off: s.Off}
	}
	return idxTerm{v: -1, off: s.Lit}
}

// varIndex returns the position of an index variable in the kernel's
// declaration order.
func varIndex(vars []string, name string) int {
	for i, v := range vars {
		if v == name {
			return i
		}
	}
	panic(fmt.Sprintf("p2g: unknown index variable %q", name))
}

// compileIndex precompiles index specs against the kernel's index-variable
// list. Slab (All) coordinates are rejected by the caller.
func compileIndex(specs []core.IndexSpec, vars []string) []idxTerm {
	terms := make([]idxTerm, len(specs))
	for d, s := range specs {
		terms[d] = compileSpec(s, vars)
	}
	return terms
}

// slabTerm is one dimension of a precompiled slab selector: fixed selects a
// single coordinate (term), free spans the dimension.
type slabTerm struct {
	fixed bool
	term  idxTerm
}

// fetchPlan is the dispatch-time plan of one fetch statement: the resolved
// field state plus precompiled coordinates, so exec neither looks up fields
// by name nor evaluates IndexSpecs through a map.
type fetchPlan struct {
	fe    *core.FetchStmt
	fs    *fieldState
	terms []idxTerm  // element fetches
	slab  []slabTerm // slab fetches (nil otherwise)
	whole bool
	// viewable marks fetches eligible for the zero-copy view path: whole
	// fetches always, slab fetches when the fixed dimensions form a prefix
	// (so the selected rows are one contiguous slab range). Other fetches
	// take the copying path into the instance's array.
	viewable bool
}

// storePlan is the dispatch-time plan of one store statement.
type storePlan struct {
	ss    *core.StoreStmt
	fs    *fieldState
	terms []idxTerm  // element stores
	slab  []slabTerm // slab stores (nil otherwise); terms nil too
}

// kernelState is the per-kernel runtime state: the static plan derived from
// the declaration plus per-age trackers and instrumentation counters.
type kernelState struct {
	decl  *core.KernelDecl
	binds []varBind // one per index variable, in declaration order

	// idx is the kernel's position in Node.order; the analyzer's
	// (kernel, age) -> shard hash is computed from it.
	idx int

	fullMask uint32 // bits of all fetches (the "fully satisfied" mask)

	// needsInstMap is true when the kernel has at least one element fetch:
	// only then does satisfaction ever look an instance up by coordinates.
	// Kernels without element fetches (whole/slab only) skip the per-instance
	// map insert on the analyzer's creation path.
	needsInstMap bool

	// Dispatch plans: precompiled fetch/store coordinates (same order as
	// decl.Fetches/decl.Stores) and a pool of reusable execution frames, so
	// the dispatch hot path is allocation-free.
	fetchPlans []fetchPlan
	storePlans []storePlan
	frames     *sync.Pool // of *execFrame

	// gran is the instances-per-dispatch-batch data granularity (§V-A).
	// Atomic because trackers of the same kernel at different ages live on
	// different analyzer shards, and adapt() may race.
	gran atomic.Int32

	// remote marks a kernel executed on another node: no local instances,
	// completions arrive via InjectRemoteDone.
	remote bool

	// Instrumentation (Table II/III): instance count, per-instance
	// dispatch overhead and kernel-code time, in nanoseconds. The handles
	// live in the node's metrics registry (per-kernel labeled counters), so
	// the Report is a projection of the registry rather than a second set
	// of books; baselines make shared registries project per-node.
	instances  counterWithBaseline
	dispatchNs counterWithBaseline
	kernelNs   counterWithBaseline
	storeOps   counterWithBaseline

	// timedInsts counts the instances whose dispatch/kernel times were
	// actually measured. Without a tracer or metrics registry the dispatch
	// path samples one instance in timeSampleEvery (time.Now is a measurable
	// fraction of a small instance's dispatch cost), so dispatchNs/kernelNs
	// hold sampled sums; the report extrapolates totals by instances/timed
	// and adapt() divides by the timed count. Per-node (not baselined): a
	// shared registry never sees it.
	timedInsts atomic.Int64

	// Stage timers (ISSUE 6): the fixed per-instance latency decomposition
	// behind the attribution report. Enabled (non-nil) only when the node
	// has a caller-supplied registry; the zero value is a no-op handle, so
	// the tracing-off dispatch path pays nothing.
	stageReady histWithBase // instance created -> last dependency satisfied
	stageQueue histWithBase // ready -> a worker picked it up
	stageFetch histWithBase // context construction + fetches
	stageExec  histWithBase // kernel body
	stageStore histWithBase // store application + event emission
}

// ownInstances returns the instances dispatched by this node (registry value
// minus the construction-time baseline); likewise the other own* accessors.
func (ks *kernelState) ownInstances() int64  { return ks.instances.Own() }
func (ks *kernelState) ownDispatchNs() int64 { return ks.dispatchNs.Own() }
func (ks *kernelState) ownKernelNs() int64   { return ks.kernelNs.Own() }
func (ks *kernelState) ownStoreOps() int64   { return ks.storeOps.Own() }

// ageTracker tracks all instances of one kernel at one age: the current index
// domain, instance satisfaction, and completion.
type ageTracker struct {
	ks  *kernelState
	age int

	extents     []int // current range per index variable
	bindsDone   int   // range-defining (field, age) pairs that are complete
	domainFinal bool

	inst    map[int64]*instState
	total   int
	done    int
	pending []*instState // ready instances not yet flushed into a batch

	// all lists every instance when the analyzer skips the inst map
	// (kernels without element fetches never look instances up by coordinate);
	// it exists only so completed trackers can recycle their instances.
	all []*instState

	completed bool
}

// fieldState is the per-field runtime state: the backing store plus the
// static producer/consumer edges and per-age completeness accounting.
type fieldState struct {
	decl *core.FieldDecl
	f    *field.Field

	producers []prodEdge
	consumers []consEdge
	// rangeOf lists the kernels (and which of their index variables) whose
	// domain is defined by this field's extents.
	rangeOf []rangeEdge

	ages map[int]*fieldAgeState

	// Store-event routing tables for the analyzer shards, precompiled at
	// NewNode. A store to generation g only concerns shards owning a tracker
	// whose element-fetch satisfaction or index-range growth can depend on
	// it: elemRoutes lists the age-variable element-fetch consumers (tracker
	// age g-off), growRoutes the age-variable range bindings (relevant only
	// when the store grew the field). Absolute-age edges touch every tracker
	// age, so they force a broadcast. An event whose route set is empty is
	// dropped at the worker — whole/slab fetches are satisfied by the
	// completeness broadcast, not by store events.
	elemRoutes    []shardRoute
	growRoutes    []shardRoute
	elemBroadcast bool
	growBroadcast bool

	// agedConsumers counts consumer edges with age-variable fetches; used
	// by garbage collection (an age is collectable when that many consumer
	// kernel-ages have completed). Fields with absolute-age consumers are
	// never collected (every future age may read them).
	agedConsumers int
	absConsumers  int
}

type prodEdge struct {
	ks    *kernelState
	store *core.StoreStmt
}

type consEdge struct {
	ks       *kernelState
	fetch    *core.FetchStmt
	fetchBit uint32
	// terms are the precompiled element-fetch coordinates (nil for whole or
	// slab fetches, which are satisfied by completeness rather than stores).
	terms []idxTerm
}

type rangeEdge struct {
	ks     *kernelState
	varIdx int
	dim    int
	age    core.AgeExpr
}

// shardRoute is one precompiled store-event destination: the consuming
// kernel's tracker at age (store generation - off).
type shardRoute struct {
	ks  *kernelState
	off int
}

// fieldAgeState tracks completeness of one field generation.
type fieldAgeState struct {
	expected      int // producer kernel-ages that must complete
	producersDone int
	complete      bool
	consumersDone int
	collected     bool
}

func (t *ageTracker) String() string {
	return fmt.Sprintf("%s(age=%d, %d/%d done, domainFinal=%v)", t.ks.decl.Name, t.age, t.done, t.total, t.domainFinal)
}

// boxCells is the cell count of box(ext): the product of the extents, zero
// for a nil box (nothing created yet).
func boxCells(ext []int) int {
	if len(ext) == 0 {
		return 0
	}
	p := 1
	for _, e := range ext {
		p *= e
	}
	return p
}

// newCells visits every coordinate in box(to) that is not in box(from). The
// boxes share an origin; from must be component-wise <= to. Rank 0 (a single
// instance with no index variables) is treated as one cell that exists once
// the tracker is created, handled by the caller.
func newCells(from, to []int, visit func([]int)) {
	rank := len(to)
	coords := make([]int, rank)
	var rec func(d, firstGrown int)
	rec = func(d, firstGrown int) {
		if d == rank {
			if firstGrown >= 0 { // cells inside the old box are not new
				visit(coords)
			}
			return
		}
		// Decomposition: a cell is new iff there is a first dimension d
		// where its coordinate is >= from[d]; before d coordinates are
		// < from, after d they range over the full new extent.
		if firstGrown >= 0 {
			for c := 0; c < to[d]; c++ {
				coords[d] = c
				rec(d+1, firstGrown)
			}
			return
		}
		// Not yet past a grown dimension: either stay below from[d] and
		// recurse, or enter the grown band [from[d], to[d]).
		for c := 0; c < from[d]; c++ {
			coords[d] = c
			rec(d+1, -1)
		}
		for c := from[d]; c < to[d]; c++ {
			coords[d] = c
			rec(d+1, d)
		}
	}
	if rank == 0 {
		return
	}
	rec(0, -1)
}
