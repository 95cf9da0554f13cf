package runtime

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	goruntime "runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/field"
	"repro/internal/obs"
)

// Options configures an execution node.
type Options struct {
	// Workers is the number of worker goroutines dispatching kernel
	// instances; the dependency analyzer's shards run in their own
	// goroutines on top of these, mirroring the paper's dedicated analyzer
	// thread. Zero selects 1.
	Workers int
	// MaxAge bounds execution: no kernel instance with age > MaxAge is
	// dispatched. Zero or negative means unbounded. Programs with no
	// termination condition (the paper's mul/sum example "runs
	// indefinitely") need a bound.
	MaxAge int
	// KernelMaxAge bounds individual kernels: no instance of the named
	// kernel runs at an age beyond its bound. This is the scheduler-level
	// "break-point" the paper introduces to stop K-means after a fixed
	// number of iterations (§VIII-B).
	KernelMaxAge map[string]int
	// Granularity sets the initial data-granularity (instances combined
	// per dispatch) per kernel name; unlisted kernels use 1, the finest
	// granularity, as the paper encourages programmers to express.
	Granularity map[string]int
	// Adaptive lets the low-level scheduler coarsen granularity at runtime
	// when dispatch overhead is not dominated by kernel time (§V-A).
	Adaptive bool
	// GC enables garbage collection of field generations whose consumers
	// have all completed (§IX).
	GC bool
	// Output receives kernel Printf output (the kernel language's cout).
	Output io.Writer
	// Clock drives deadline timers; nil selects the real clock.
	Clock deadline.Clock
	// AnalyzerShards is the dependency analyzer's shard count: its state is
	// sharded by (kernel, age) across this many goroutines, each with its
	// own event channel. One shard is the paper's single analyzer thread.
	// Zero picks max(1, min(8, GOMAXPROCS/2)), and values are capped at 64
	// (the shard routing mask is a uint64).
	AnalyzerShards int

	// Metrics, when set, receives the node's full instrumentation: the
	// per-kernel counters behind the Report plus dispatch/fetch/store
	// latency histograms and queue-depth, event-backlog and field-memory
	// gauges (see internal/obs for metric names). When nil, the node keeps
	// a private registry holding only the per-kernel counters the Report
	// projects, and the detailed metrics are disabled.
	Metrics *obs.Registry
	// Tracer, when set, records one lifecycle span per kernel instance
	// (ready → fetched → executed → stored → committed, with age and index
	// coordinates) into its bounded ring, exportable as Chrome trace_event
	// JSON. Nil disables tracing at the cost of one nil check per dispatch.
	Tracer *obs.Tracer

	// RemoteKernels marks kernels of the program that execute on other
	// nodes of a distributed deployment: the local analyzer creates no
	// instances for them, but accounts for their completions — injected
	// with InjectRemoteDone — when deciding field completeness.
	RemoteKernels map[string]bool
	// NoAutoQuiesce keeps the node running when it has no local work, so
	// remote events can still arrive; the node then stops only on Stop().
	// Required (and only meaningful) for distributed operation.
	NoAutoQuiesce bool
	// OnStore, when set, observes every successful local store with its
	// data — the publish half of the distributed pub-sub layer. It is
	// called from worker goroutines.
	OnStore func(StoreNotice)
	// OnKernelDone, when set, observes every completed local kernel-age —
	// the producer-done notifications remote nodes need for completeness.
	// It is called from the analyzer goroutine.
	OnKernelDone func(kernel string, age int)
	// MergeStores relaxes write-once enforcement on every field (see
	// field.SetMergeStores): duplicate stores are silently skipped rather
	// than erroring. The distributed runtime enables it under failover so
	// that replayed generations and re-executed deterministic kernels merge
	// into identical state; genuine write-twice program errors are masked
	// while it is on.
	MergeStores bool
}

// StoreNotice describes one store operation for distribution to peers.
type StoreNotice struct {
	Field string
	Age   int
	// Elem is the element coordinates for an element store; nil with
	// Whole set for a whole-field store.
	Elem  []int
	Whole bool
	// Sel is the slab selector for a slab store (fixed dimensions pinned,
	// free dimensions covered by the array payload); nil otherwise.
	Sel []field.SlabDim
	// Value carries the element value, or the whole/slab array (as an array
	// value) for whole-field and slab stores.
	Value field.Value
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxAge <= 0 {
		o.MaxAge = math.MaxInt
	}
	if o.AnalyzerShards <= 0 {
		o.AnalyzerShards = goruntime.GOMAXPROCS(0) / 2
		if o.AnalyzerShards > 8 {
			o.AnalyzerShards = 8
		}
	}
	if o.AnalyzerShards < 1 {
		o.AnalyzerShards = 1
	}
	if o.AnalyzerShards > 64 {
		o.AnalyzerShards = 64
	}
	return o
}

// Node is a single P2G execution node: program state, fields, the dependency
// analyzer and a worker pool. Create one with NewNode, execute with Run, then
// inspect fields and instrumentation.
type Node struct {
	prog *core.Program
	opts Options

	fields  map[string]*fieldState
	kernels map[string]*kernelState
	order   []*kernelState

	timers *deadline.TimerSet
	sched  *stealScheduler
	sh     *shardedAnalyzer
	out    *lockedWriter

	wg        sync.WaitGroup
	closeOnce sync.Once

	// injectMu guards the shard event channels against sends racing their
	// close during shutdown (InjectStore and friends run on caller
	// goroutines).
	injectMu     sync.RWMutex
	eventsClosed bool

	errMu  sync.Mutex
	runErr error

	report *Report

	// Observability: reg is always non-nil (Options.Metrics or a private
	// registry) and holds the per-kernel counters the Report projects; the
	// detailed handles below are nil unless Options.Metrics was set.
	// mSteals and mEventBatches always live in the registry (the Report
	// surfaces them), baseline-subtracted like the per-kernel counters.
	reg           *obs.Registry
	tracer        *obs.Tracer
	mDispatches   *obs.Counter
	mSteals       counterWithBaseline
	mEventBatches counterWithBaseline
	hFetch        *obs.Histogram
	hKernel       *obs.Histogram
	hStore        *obs.Histogram
	gQueue        *obs.Gauge
	gBacklog      *obs.Gauge
	gFieldMem     *obs.Gauge
	gOutstand     *obs.Gauge

	// Stage-timer clock: instance lifecycle stamps (createdNs, readyNs) are
	// nanoseconds since clock. When tracing is on, clock is the tracer's
	// start so stamps double as span timestamps; stamp gates the stamping
	// work entirely (false = tracing and stage metrics both off, the
	// allocation-free zero-overhead path).
	clock time.Time
	stamp bool
	// hIdle accumulates per-worker blocked-on-empty-queue time; together
	// with the per-kernel busy stages it makes attribution sum to the run's
	// worker-seconds (Report.Stages).
	hIdle histWithBase
}

// nowNs returns nanoseconds since the node's stage clock.
func (n *Node) nowNs() int64 { return time.Since(n.clock).Nanoseconds() }

// lockedWriter serializes kernel Printf output from concurrent workers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	if lw.w == nil {
		return len(p), nil
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// NewNode validates the program and builds the node's static plan: field
// states with producer/consumer edges and kernel states with index-variable
// range bindings.
func NewNode(p *core.Program, opts Options) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := &Node{
		prog:    p,
		opts:    opts,
		fields:  make(map[string]*fieldState, len(p.Fields)),
		kernels: make(map[string]*kernelState, len(p.Kernels)),
		timers:  deadline.NewTimerSet(opts.Clock, p.Timers...),
		out:     &lockedWriter{w: opts.Output},
		reg:     opts.Metrics,
		tracer:  opts.Tracer,
	}
	// Stage stamps share the tracer's clock when tracing, so readyNs feeds
	// both span wait times and the ready-wait histogram consistently.
	if opts.Tracer != nil {
		n.clock = opts.Tracer.StartTime()
	} else {
		n.clock = time.Now()
	}
	n.stamp = opts.Tracer != nil || opts.Metrics != nil
	var gWorkerDepth []*obs.Gauge
	if n.reg == nil {
		// Private registry: the per-kernel counters always live in a
		// registry so the Report is a projection of it, but the detailed
		// node metrics below stay disabled (nil handles are no-ops).
		n.reg = obs.NewRegistry()
	} else {
		n.hIdle = newHistBase(n.reg.Histogram(obs.MStageIdleNs))
		n.mDispatches = n.reg.Counter(obs.MDispatchesTotal)
		n.hFetch = n.reg.Histogram(obs.MFetchNs)
		n.hKernel = n.reg.Histogram(obs.MKernelNs)
		n.hStore = n.reg.Histogram(obs.MStoreNs)
		n.gQueue = n.reg.Gauge(obs.MReadyQueueDepth)
		n.gBacklog = n.reg.Gauge(obs.MEventBacklog)
		n.gFieldMem = n.reg.Gauge(obs.MFieldMemElems)
		n.gOutstand = n.reg.Gauge(obs.MOutstandingInsts)
		gWorkerDepth = make([]*obs.Gauge, opts.Workers)
		for i := range gWorkerDepth {
			gWorkerDepth[i] = n.reg.Gauge(obs.Label(obs.MWorkerQueueDepth, "worker", strconv.Itoa(i)))
		}
	}
	n.mSteals = newBaselined(n.reg.Counter(obs.MStealsTotal))
	n.mEventBatches = newBaselined(n.reg.Counter(obs.MEventBatchesTotal))
	n.sched = newStealScheduler(opts.Workers, n.mSteals.c, gWorkerDepth)
	n.tracer.CountDropped(n.reg.Counter(obs.MTraceDropped))
	for _, fd := range p.Fields {
		fl := field.New(fd.Name, fd.Kind, fd.Rank, fd.Aged)
		if opts.MergeStores {
			fl.SetMergeStores(true)
		}
		n.fields[fd.Name] = &fieldState{
			decl: fd,
			f:    fl,
			ages: make(map[int]*fieldAgeState),
		}
	}
	for name := range opts.RemoteKernels {
		if p.Kernel(name) == nil {
			return nil, fmt.Errorf("p2g: remote kernel %q is not part of the program", name)
		}
	}
	if opts.GC && len(opts.RemoteKernels) > 0 {
		return nil, fmt.Errorf("p2g: field garbage collection cannot be combined with remote kernels (remote consumers are invisible to the local GC)")
	}
	for _, kd := range p.Kernels {
		ks := &kernelState{
			decl: kd, remote: opts.RemoteKernels[kd.Name],
			instances:  newBaselined(n.reg.Counter(obs.Label(obs.MKernelInstances, "kernel", kd.Name))),
			dispatchNs: newBaselined(n.reg.Counter(obs.Label(obs.MKernelDispatchNs, "kernel", kd.Name))),
			kernelNs:   newBaselined(n.reg.Counter(obs.Label(obs.MKernelTimeNs, "kernel", kd.Name))),
			storeOps:   newBaselined(n.reg.Counter(obs.Label(obs.MKernelStoreOps, "kernel", kd.Name))),
		}
		if opts.Metrics != nil {
			ks.stageReady = newHistBase(n.reg.Histogram(obs.Label(obs.MStageReadyWaitNs, "kernel", kd.Name)))
			ks.stageQueue = newHistBase(n.reg.Histogram(obs.Label(obs.MStageQueueWaitNs, "kernel", kd.Name)))
			ks.stageFetch = newHistBase(n.reg.Histogram(obs.Label(obs.MStageFetchNs, "kernel", kd.Name)))
			ks.stageExec = newHistBase(n.reg.Histogram(obs.Label(obs.MStageExecNs, "kernel", kd.Name)))
			ks.stageStore = newHistBase(n.reg.Histogram(obs.Label(obs.MStageStoreNs, "kernel", kd.Name)))
		}
		ks.gran.Store(1)
		if g, ok := opts.Granularity[kd.Name]; ok && g > 0 {
			ks.gran.Store(int32(g))
		}
		if len(kd.Fetches) > 32 {
			return nil, fmt.Errorf("p2g: kernel %q has %d fetches; the runtime supports at most 32", kd.Name, len(kd.Fetches))
		}
		ks.fullMask = uint32(1)<<uint(len(kd.Fetches)) - 1
		ks.idx = len(n.order)
		n.kernels[kd.Name] = ks
		n.order = append(n.order, ks)
	}
	// Edges and range bindings.
	for _, ks := range n.order {
		kd := ks.decl
		ks.binds = make([]varBind, len(kd.IndexVars))
		boundVars := make(map[string]bool, len(kd.IndexVars))
		for i := range kd.Fetches {
			fe := &kd.Fetches[i]
			fs := n.fields[fe.Field]
			ce := consEdge{ks: ks, fetch: fe, fetchBit: uint32(1) << uint(i)}
			if !fe.Whole() && !fe.Slab() {
				ce.terms = compileIndex(fe.Index, kd.IndexVars)
			}
			fs.consumers = append(fs.consumers, ce)
			if fe.Age.HasVar {
				fs.agedConsumers++
			} else {
				fs.absConsumers++
			}
			for d, spec := range fe.Index {
				if spec.Kind != core.IndexVarKind || spec.Off != 0 || boundVars[spec.Var] {
					continue
				}
				boundVars[spec.Var] = true
				vi := varIndex(kd.IndexVars, spec.Var)
				ks.binds[vi] = varBind{fs: fs, dim: d, age: fe.Age}
				fs.rangeOf = append(fs.rangeOf, rangeEdge{ks: ks, varIdx: vi, dim: d, age: fe.Age})
			}
		}
		for i := range kd.Stores {
			ss := &kd.Stores[i]
			fs := n.fields[ss.Field]
			fs.producers = append(fs.producers, prodEdge{ks: ks, store: ss})
		}
	}
	// Dispatch plans: resolve every fetch/store to its field state and
	// precompile the index expressions, then size a pool of reusable
	// execution frames (context + coordinate/selector scratch) per kernel.
	// This is what makes the dispatch hot path allocation-free.
	for _, ks := range n.order {
		kd := ks.decl
		maxIdx, maxSel := 0, 0
		ks.fetchPlans = make([]fetchPlan, len(kd.Fetches))
		for i := range kd.Fetches {
			fe := &kd.Fetches[i]
			fp := fetchPlan{fe: fe, fs: n.fields[fe.Field]}
			switch {
			case fe.Whole():
				fp.whole = true
				fp.viewable = true
			case fe.Slab():
				fp.slab = make([]slabTerm, len(fe.Index))
				for d, spec := range fe.Index {
					if spec.Kind == core.IndexAllKind {
						continue // zero value spans the whole dimension
					}
					fp.slab[d] = slabTerm{fixed: true, term: compileSpec(spec, kd.IndexVars)}
				}
				if len(fp.slab) > maxSel {
					maxSel = len(fp.slab)
				}
				// A slab selector is viewable when its fixed dimensions are
				// a prefix: the free suffix then addresses one contiguous
				// row range of the generation slab.
				fp.viewable = true
				free := false
				for _, st := range fp.slab {
					if st.fixed && free {
						fp.viewable = false
						break
					}
					if !st.fixed {
						free = true
					}
				}
			default:
				fp.terms = compileIndex(fe.Index, kd.IndexVars)
				if len(fp.terms) > maxIdx {
					maxIdx = len(fp.terms)
				}
				ks.needsInstMap = true
			}
			ks.fetchPlans[i] = fp
		}
		ks.storePlans = make([]storePlan, len(kd.Stores))
		for i := range kd.Stores {
			ss := &kd.Stores[i]
			sp := storePlan{ss: ss, fs: n.fields[ss.Field]}
			switch {
			case ss.Whole():
			case ss.Slab():
				sp.slab = make([]slabTerm, len(ss.Index))
				for d, spec := range ss.Index {
					if spec.Kind == core.IndexAllKind {
						continue // zero value spans the whole dimension
					}
					sp.slab[d] = slabTerm{fixed: true, term: compileSpec(spec, kd.IndexVars)}
				}
				if len(sp.slab) > maxSel {
					maxSel = len(sp.slab)
				}
			default:
				sp.terms = compileIndex(ss.Index, kd.IndexVars)
				if len(sp.terms) > maxIdx {
					maxIdx = len(sp.terms)
				}
			}
			ks.storePlans[i] = sp
		}
		kd, nIdx, nSel := kd, maxIdx, maxSel
		ks.frames = &sync.Pool{New: func() any {
			fr := &execFrame{
				idx: make([]int, nIdx),
				sel: make([]field.SlabDim, nSel),
			}
			fr.ctx = core.NewReusableCtx(kd, n.timers, &fr.out)
			return fr
		}}
	}
	// Store-event routing tables: which analyzer shards a store to
	// generation g can concern. Remote kernels never have local trackers, so
	// their edges route nowhere.
	for _, fs := range n.fields {
		seenElem := make(map[shardRoute]bool)
		for _, ce := range fs.consumers {
			if ce.terms == nil || ce.ks.remote {
				continue
			}
			if !ce.fetch.Age.HasVar {
				fs.elemBroadcast = true
				continue
			}
			r := shardRoute{ks: ce.ks, off: ce.fetch.Age.Offset}
			if !seenElem[r] {
				seenElem[r] = true
				fs.elemRoutes = append(fs.elemRoutes, r)
			}
		}
		seenGrow := make(map[shardRoute]bool)
		for _, re := range fs.rangeOf {
			if re.ks.remote {
				continue
			}
			if !re.age.HasVar {
				fs.growBroadcast = true
				continue
			}
			r := shardRoute{ks: re.ks, off: re.age.Offset}
			if !seenGrow[r] {
				seenGrow[r] = true
				fs.growRoutes = append(fs.growRoutes, r)
			}
		}
	}
	n.sh = newShardedAnalyzer(n, opts.AnalyzerShards)
	return n, nil
}

// execFrame is the reusable per-dispatch state a worker checks out of a
// kernel's frame pool: the instance context plus coordinate and slab-selector
// scratch sized for the kernel's largest index expressions. views holds the
// tokens of slab views acquired by the current dispatch; they are released
// after the store loop, when nothing can read the aliased slabs anymore.
// out collects the instance's kernel output, written to the node's output in
// one piece when the body returns: a kernel-language cout statement is one
// Printf, so a line usually takes several, and unbuffered lines of
// concurrent instances would interleave.
type execFrame struct {
	ctx   *core.Ctx
	idx   []int
	sel   []field.SlabDim
	views []field.ViewToken
	out   bytes.Buffer
}

// releaseViews drops every view token acquired by the current dispatch.
func (fr *execFrame) releaseViews() {
	for i := range fr.views {
		fr.views[i].Release()
	}
	fr.views = fr.views[:0]
}

// Run executes the program to quiescence and returns the instrumentation
// report. Run may be called once per node.
func (n *Node) Run() (*Report, error) {
	start := time.Now()
	for i := 0; i < n.opts.Workers; i++ {
		n.wg.Add(1)
		go n.worker(i)
	}
	n.sh.run()
	n.wg.Wait()
	n.report = n.buildReport(time.Since(start), n.sh.stats(n.failed()))
	return n.report, n.runErr
}

// Run builds a node and executes the program in one call. The node is not
// exposed, so no field state outlives the call: remaining generations are
// released to the slab pools before returning, and back-to-back runs reuse
// each other's storage.
func Run(p *core.Program, opts Options) (*Report, error) {
	n, err := NewNode(p, opts)
	if err != nil {
		return nil, err
	}
	rep, runErr := n.Run()
	n.Release()
	return rep, runErr
}

// closeEventsWhenWorkersExit arranges for the shard event channels to close
// once all workers have stopped, letting the analyzer drain without deadlock.
func (n *Node) closeEventsWhenWorkersExit() {
	n.closeOnce.Do(func() {
		go func() {
			n.wg.Wait()
			n.injectMu.Lock()
			n.eventsClosed = true
			for _, s := range n.sh.shards {
				close(s.ch)
			}
			n.injectMu.Unlock()
		}()
	})
}

// inject delivers an externally produced event unless the node has shut
// down. External events arrive one at a time, so each rides in its own
// (pooled) single-event batch, routed to the shard(s) it concerns: done
// events to the tracker's owner, remote-done and completeness bookkeeping to
// shard 0, stop to everyone, and store events along the precompiled routing
// tables.
func (n *Node) inject(ev event) {
	n.injectMu.RLock()
	defer n.injectMu.RUnlock()
	if n.eventsClosed {
		return
	}
	sh := n.sh
	send := func(shard int) {
		evs := getEventBuf()
		evs = append(evs, ev)
		n.mEventBatches.Add(1)
		sh.pending.Add(1)
		sh.activity.Add(1)
		sh.shards[shard].ch <- evs
	}
	switch {
	case ev.stop:
		for i := range sh.shards {
			send(i)
		}
	case ev.remoteDone != nil:
		send(0)
	case ev.isDone:
		send(sh.shardOf(ev.t.ks, ev.t.age))
	default:
		sh.injectEnsure(ev.fs, ev.age)
		mask := sh.shardMaskForStore(ev.fs, ev.age, ev.grew)
		for mask != 0 {
			i := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(i)
			send(i)
		}
	}
}

// InjectStore applies a store received from a remote node: the value is
// written to the local field replica and the analyzer is notified exactly as
// for a local store.
func (n *Node) InjectStore(sn StoreNotice) error {
	fs, ok := n.fields[sn.Field]
	if !ok {
		return fmt.Errorf("p2g: remote store to unknown field %q", sn.Field)
	}
	var res field.StoreResult
	var err error
	switch {
	case sn.Whole:
		arr := sn.Value.Array()
		if arr == nil {
			return fmt.Errorf("p2g: remote whole-field store to %q without array payload", sn.Field)
		}
		res, err = fs.f.StoreAll(sn.Age, arr)
	case sn.Sel != nil:
		arr := sn.Value.Array()
		if arr == nil {
			return fmt.Errorf("p2g: remote slab store to %q without array payload", sn.Field)
		}
		res, err = fs.f.StoreSlice(sn.Age, sn.Sel, arr)
	default:
		res, err = fs.f.Store(sn.Age, sn.Value, sn.Elem...)
	}
	if err != nil {
		return err
	}
	whole := sn.Whole || sn.Sel != nil
	ev := event{fs: fs, age: sn.Age, whole: whole, grew: res.Grew, extents: res.Extents}
	if !whole {
		ev.setElem(sn.Elem)
	}
	n.inject(ev)
	return nil
}

// InjectRemoteDone records that a remote kernel finished all instances of
// one age; its stores' target generations count the producer as done.
func (n *Node) InjectRemoteDone(kernel string, age int) error {
	ks, ok := n.kernels[kernel]
	if !ok {
		return fmt.Errorf("p2g: remote done for unknown kernel %q", kernel)
	}
	n.inject(event{remoteDone: ks, age: age})
	return nil
}

// Stop ends a NoAutoQuiesce node: the analyzer shuts down after draining
// in-flight work.
func (n *Node) Stop() {
	n.inject(event{stop: true})
}

// Idle reports whether the node currently has no dispatched instances and no
// backlogged events. Distributed masters poll this (twice, with stable event
// counts) to detect global quiescence.
func (n *Node) Idle() bool {
	// pending counts every unit of in-flight work: buffered batches, control
	// messages, and ready-but-not-done instances.
	return n.sh.pending.Load() == 0
}

func (n *Node) fail(err error) {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	if n.runErr == nil {
		n.runErr = err
	}
}

func (n *Node) failed() bool {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.runErr != nil
}

// kernelMaxAge returns the per-kernel age bound, or MaxAge when none is set.
func (n *Node) kernelMaxAge(ks *kernelState) int {
	if a, ok := n.opts.KernelMaxAge[ks.decl.Name]; ok {
		return a
	}
	return n.opts.MaxAge
}

// Timers exposes the node's deadline timers.
func (n *Node) Timers() *deadline.TimerSet { return n.timers }

// Metrics exposes the node's metrics registry: Options.Metrics when one was
// supplied, otherwise the private registry backing the Report.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Snapshot returns a copy of a field generation after (or during) a run.
func (n *Node) Snapshot(fieldName string, age int) (*field.Array, error) {
	fs, ok := n.fields[fieldName]
	if !ok {
		return nil, fmt.Errorf("p2g: unknown field %q", fieldName)
	}
	return fs.f.Snapshot(age), nil
}

// Release returns every field generation still live at end of run to the
// slab pools. Mid-run garbage collection only recycles ages whose consumers
// all finished; the youngest generations survive to the end and would
// otherwise be lost to the GC. Call it once final state has been read —
// snapshots are copies and stay valid — after which the node must not run.
func (n *Node) Release() {
	for _, fs := range n.fields {
		fs.f.Release()
	}
}

// FieldMemoryElems reports the total allocated field elements across live
// generations; used by the garbage-collection tests and report.
func (n *Node) FieldMemoryElems() int {
	total := 0
	for _, fs := range n.fields {
		total += fs.f.MemoryElems()
	}
	return total
}

// eventFlushThreshold bounds a worker's local event buffer: the buffer is
// flushed to the analyzer when it reaches this many events, and always before
// the worker blocks on an empty ready queue (otherwise the analyzer could
// wait forever for a done event sitting in a sleeping worker's buffer).
const eventFlushThreshold = 64

// workerState is one worker goroutine's dispatch state: its scheduler slot
// and the local analyzer-event buffers awaiting the next batched flush — one
// buffer per analyzer shard.
type workerState struct {
	n    *Node
	id   int // 0-based scheduler slot; tracer lane is id+1 (analyzer is 0)
	bufs [][]event

	// timeAll forces per-instance timing (tracer spans and stage histograms
	// need every instance); otherwise exec samples one instance in
	// timeSampleEvery, paced by tick.
	timeAll bool
	tick    uint
	// mark is the worker's last stage stamp. With timeAll the stages tile
	// the worker's clock: each starts at mark, so the bookkeeping between
	// two stamps (metrics, batch handling, the flush) lands in a stage.
	mark time.Time

	// frames caches one checked-out execution frame per kernel (indexed by
	// kernelState.idx) so consecutive dispatches skip the sync.Pool, whose
	// dequeue CAS is measurable on the dispatch path. Frames return to their
	// kernel's pool when the worker exits.
	frames []*execFrame
}

// stageStart returns the first stamp of a stage: mark when every instance is
// timed, the current time otherwise.
func (w *workerState) stageStart() time.Time {
	if w.timeAll && !w.mark.IsZero() {
		return w.mark
	}
	return time.Now()
}

// timeSampleEvery is the uninstrumented dispatch path's timing sample rate:
// one instance in this many gets the full time.Now() stamping. Must be a
// power of two (sampling uses a mask).
const timeSampleEvery = 8

func newWorkerState(n *Node, id int) *workerState {
	w := &workerState{n: n, id: id, bufs: make([][]event, len(n.sh.shards)), timeAll: n.stamp, frames: make([]*execFrame, len(n.order))}
	for i := range w.bufs {
		w.bufs[i] = getEventBuf()
	}
	return w
}

// emit routes one analyzer event to its shard buffer(s). A store event
// reaches only the shards whose trackers can depend on it; an event with an
// empty route set is dropped here, before it costs a channel send or an
// analyzer wakeup.
func (w *workerState) emit(ev *event) {
	sh := w.n.sh
	if ev.isDone {
		w.add(sh.shardOf(ev.t.ks, ev.t.age), ev)
		return
	}
	mask := sh.shardMaskForStore(ev.fs, ev.age, ev.grew)
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(i)
		w.add(i, ev)
	}
}

// add buffers one event for one shard, flushing at the batching threshold.
// The quiescence count covers a buffer from its first event: the increment
// happens here (empty -> non-empty) and the matching decrement only after the
// flushed batch is fully processed.
func (w *workerState) add(shard int, ev *event) {
	if len(w.bufs[shard]) == 0 {
		w.n.sh.pending.Add(1)
		w.n.sh.activity.Add(1)
	}
	w.bufs[shard] = append(w.bufs[shard], *ev)
	if len(w.bufs[shard]) >= eventFlushThreshold {
		w.flushShard(shard)
	}
}

// flushShard hands one shard's buffered events to its analyzer as one batch
// (a single channel send) and starts a fresh pooled buffer.
func (w *workerState) flushShard(shard int) {
	if len(w.bufs[shard]) == 0 {
		return
	}
	w.n.mEventBatches.Add(1)
	w.n.sh.shards[shard].ch <- w.bufs[shard]
	w.bufs[shard] = getEventBuf()
}

// flush hands every non-empty buffer to its analyzer shard.
func (w *workerState) flush() {
	for i := range w.bufs {
		w.flushShard(i)
	}
}

// worker is one worker goroutine: it pops batches oldest-age-first and
// executes each instance, buffering store and done events and flushing them
// to the analyzer in batches. The flush-before-block order matters for
// liveness: a worker only blocks in Pop after its buffer has been handed to
// the analyzer, so the done events the analyzer needs to produce more work
// are never stranded.
func (n *Node) worker(id int) {
	defer n.wg.Done()
	w := newWorkerState(n, id)
	defer func() {
		for i, fr := range w.frames {
			if fr != nil {
				n.order[i].frames.Put(fr)
			}
		}
	}()
	for {
		b, ok := n.sched.TryPop(id)
		if !ok {
			if w.timeAll {
				// Out of work: the idle stage of the attribution report
				// (worker-seconds not spent dispatching), from the last
				// stamp through the flush that hands the analyzer this
				// worker's events until the next batch arrives.
				idleFrom := w.stageStart()
				w.flush()
				b, ok = n.sched.Pop(id)
				w.mark = time.Now()
				n.hIdle.Observe(w.mark.Sub(idleFrom))
			} else {
				w.flush()
				b, ok = n.sched.Pop(id)
			}
			if !ok {
				return
			}
		}
		for _, is := range b.insts {
			n.exec(b.tracker, is, w)
		}
		releaseBatch(b)
	}
}

// exec runs one kernel instance through its precompiled dispatch plan: check
// out a pooled execution frame, perform fetches, run the body, apply stores,
// buffer events. Dispatch time (everything but the body) and kernel time (the
// body) feed the Table II/III instrumentation. The path allocates nothing for
// element fetches/stores: coordinates evaluate into the frame's scratch.
func (n *Node) exec(t *ageTracker, is *instState, w *workerState) {
	ks := t.ks
	kd := ks.decl
	timed := w.timeAll
	if !timed {
		w.tick++
		// Sample the timing stamps; the extra seed check keeps kernels with
		// fewer instances than the sample period from reporting zero.
		timed = w.tick&(timeSampleEvery-1) == 0 || ks.timedInsts.Load() == 0
	}
	var t0 time.Time
	if timed {
		t0 = w.stageStart()
	}

	fr := w.frames[ks.idx]
	if fr == nil {
		fr = ks.frames.Get().(*execFrame)
		w.frames[ks.idx] = fr
	}
	ctx := fr.ctx
	ctx.Reset(t.age, is.coords)
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		fe := fp.fe
		g := fe.Age.Eval(t.age)
		switch {
		case fp.whole:
			dst := ctx.FetchDest(fe.Local)
			if fp.viewable {
				if tok, ok := fp.fs.f.FetchViewAll(g, dst); ok {
					fr.views = append(fr.views, tok)
					ctx.BindFetched(fe.Local, field.ArrayVal(dst))
					continue
				}
			}
			fp.fs.f.SnapshotInto(g, dst)
			ctx.BindFetched(fe.Local, field.ArrayVal(dst))
		case fp.slab != nil:
			sel := fr.sel[:len(fp.slab)]
			for d, st := range fp.slab {
				if st.fixed {
					sel[d] = field.SlabDim{Fixed: true, Index: st.term.eval(is.coords)}
				} else {
					sel[d] = field.SlabDim{}
				}
			}
			dst := ctx.FetchDest(fe.Local)
			if fp.viewable {
				if tok, ok := fp.fs.f.FetchViewSlice(g, sel, dst); ok {
					fr.views = append(fr.views, tok)
					ctx.BindFetched(fe.Local, field.ArrayVal(dst))
					continue
				}
			}
			fp.fs.f.FetchSlice(g, sel, dst)
			ctx.BindFetched(fe.Local, field.ArrayVal(dst))
		default:
			idx := evalTerms(fr.idx[:len(fp.terms)], fp.terms, is.coords)
			v, ok := fp.fs.f.At(g, idx...)
			if !ok {
				n.fail(fmt.Errorf("p2g: internal error: %s dispatched before %s(%d)%v was written", kd.Name, fe.Field, g, idx))
				w.emit(&event{isDone: true, t: t, inst: is})
				fr.releaseViews()
				fr.ctx.Reset(0, nil)
				return
			}
			ctx.BindFetched(fe.Local, v)
		}
	}

	var t1 time.Time
	if timed {
		t1 = time.Now()
	}
	err := n.runBody(kd, ctx)
	if fr.out.Len() > 0 {
		n.out.Write(fr.out.Bytes())
		fr.out.Reset()
	}
	var t2 time.Time
	if timed {
		t2 = time.Now()
	}

	stores := 0
	if err != nil {
		n.fail(fmt.Errorf("p2g: kernel %s(age=%d): %w", kd.Name, t.age, err))
	} else {
		for i := range ks.storePlans {
			sp := &ks.storePlans[i]
			ss := sp.ss
			if !ctx.Bound(ss.Local) {
				continue
			}
			g := ss.Age.Eval(t.age)
			ev := event{fs: sp.fs, age: g}
			var res field.StoreResult
			var serr error
			var sel []field.SlabDim
			switch {
			case sp.slab != nil:
				sel = fr.sel[:len(sp.slab)]
				for d, st := range sp.slab {
					if st.fixed {
						sel[d] = field.SlabDim{Fixed: true, Index: st.term.eval(is.coords)}
					} else {
						sel[d] = field.SlabDim{}
					}
				}
				res, serr = sp.fs.f.StoreSlice(g, sel, ctx.Get(ss.Local).Array())
				// A slab store covers a whole sub-region at once; the
				// analyzer handles it like a whole store (scanSatisfy
				// re-checks element fetches against field contents).
				ev.whole = true
			case sp.terms == nil:
				res, serr = sp.fs.f.StoreAll(g, ctx.Get(ss.Local).Array())
				ev.whole = true
			default:
				idx := evalTerms(fr.idx[:len(sp.terms)], sp.terms, is.coords)
				res, serr = sp.fs.f.Store(g, ctx.Get(ss.Local), idx...)
				ev.setElem(idx)
			}
			if serr != nil {
				n.fail(fmt.Errorf("p2g: kernel %s(age=%d): %w", kd.Name, t.age, serr))
				break
			}
			stores++
			if n.opts.OnStore != nil {
				val := ctx.Get(ss.Local)
				var elem []int
				var selCopy []field.SlabDim
				switch {
				case sp.slab != nil:
					val = field.ArrayVal(val.Array().Clone())
					selCopy = append([]field.SlabDim(nil), sel...)
				case sp.terms == nil:
					val = field.ArrayVal(val.Array().Clone())
				default:
					elem = append([]int(nil), fr.idx[:len(sp.terms)]...)
				}
				n.opts.OnStore(StoreNotice{Field: ss.Field, Age: g, Elem: elem, Whole: sp.terms == nil && sp.slab == nil, Sel: selCopy, Value: val})
			}
			ev.grew = res.Grew
			ev.extents = res.Extents
			w.emit(&ev)
		}
	}
	ks.instances.Add(1)
	ks.storeOps.Add(int64(stores))

	// Hand the instance back before the last stamp, so the store stage covers
	// the whole dispatch epilogue. The done event may reach the analyzer,
	// which can recycle is, so read what the stamps need first.
	readyNs, coords := is.readyNs, is.coords
	done := event{isDone: true, t: t, inst: is, stores: stores, stopped: ctx.Stopped()}
	w.emit(&done)
	// The frame stays checked out in w.frames; drop the slab views (stores
	// are applied, nothing reads the aliased generations anymore) and clear
	// the context so the cached frame does not pin fetched values between
	// dispatches.
	fr.releaseViews()
	fr.ctx.Reset(0, nil)

	if timed {
		t3 := time.Now()
		w.mark = t3
		ks.timedInsts.Add(1)
		ks.dispatchNs.Add(int64(t1.Sub(t0) + t3.Sub(t2)))
		ks.kernelNs.Add(int64(t2.Sub(t1)))

		// Detailed metrics and tracing (nil handles are no-ops; with a
		// registry or tracer attached timeAll covers every instance, so
		// the histograms and spans below are never sampled).
		n.mDispatches.Add(1)
		n.hFetch.Observe(t1.Sub(t0))
		n.hKernel.Observe(t2.Sub(t1))
		n.hStore.Observe(t3.Sub(t2))
		if n.stamp {
			// t0 on the node's stage clock; with tracing on this equals the
			// span timestamp, so queue wait is identical in both views.
			ts := t0.Sub(n.clock).Nanoseconds()
			wait := int64(0)
			if readyNs > 0 && ts > readyNs {
				wait = ts - readyNs
			}
			ks.stageQueue.Observe(time.Duration(wait))
			ks.stageFetch.Observe(t1.Sub(t0))
			ks.stageExec.Observe(t2.Sub(t1))
			ks.stageStore.Observe(t3.Sub(t2))
			if tr := n.tracer; tr != nil {
				// With a tracer attached instances are never recycled, so
				// coords is still intact.
				tr.Record(obs.Span{
					Name: kd.Name, Cat: "kernel", Ph: obs.PhaseComplete,
					TS: ts, Dur: t3.Sub(t0).Nanoseconds(), TID: w.id + 1,
					Age: t.age, Index: coords,
					WaitNs:   wait,
					FetchNs:  t1.Sub(t0).Nanoseconds(),
					KernelNs: t2.Sub(t1).Nanoseconds(),
					StoreNs:  t3.Sub(t2).Nanoseconds(),
				})
			}
		}
	}
}

// runBody executes the kernel body, converting panics into errors so a buggy
// kernel fails the run instead of crashing the node.
func (n *Node) runBody(kd *core.KernelDecl, ctx *core.Ctx) (err error) {
	if kd.Body == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return kd.Body(ctx)
}
