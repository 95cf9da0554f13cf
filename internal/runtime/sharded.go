package runtime

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fieldGen identifies one generation of one field.
type fieldGen struct {
	fs *fieldState
	g  int
}

// ctlKind enumerates the cross-shard control messages. Everything that must
// be sequenced against field completeness runs through shard 0 (the
// completion authority); completeness itself fans back out as a broadcast.
type ctlKind uint8

const (
	// ctlEnsure (to shard 0) materializes a fieldAgeState so generations
	// with zero expected producers complete immediately.
	ctlEnsure ctlKind = iota
	// ctlTrackerComplete (to shard 0) runs producer/consumer accounting for
	// a finished kernel-age.
	ctlTrackerComplete
	// ctlFieldComplete (broadcast) announces a complete field generation;
	// each shard updates its completeness replica and satisfies its own
	// trackers, giving exactly-once bindsDone counting per shard.
	ctlFieldComplete
	// ctlCreateTracker (to the owning shard) bootstraps a run-once kernel.
	ctlCreateTracker
	// ctlCreateSource (to the owning shard) creates a source kernel's
	// tracker at the given age (bootstrap and the age+1 continuation).
	ctlCreateSource
)

type ctlMsg struct {
	kind ctlKind
	fs   *fieldState
	age  int
	t    *ageTracker
	ks   *kernelState
}

// shardedAnalyzer is the dependency analyzer half of the low-level
// scheduler: N anShard goroutines, each owning the trackers whose
// (kernel, age) hashes to it, fed by per-shard event channels so workers
// never contend on a single analyzer inbox. With one shard it is the paper's
// single dedicated analyzer thread, whose serial cost §VIII-B blames for the
// K-means scaling limit; more shards remove that bottleneck while the
// scheduler's age epoch preserves oldest-age-first dispatch order.
//
// Quiescence is a single atomic: pending counts every unit of in-flight work
// (buffered worker batches, injected batches, posted control messages, and
// ready-but-not-done instances). Every increment for spawned work happens
// before the spawning unit's own decrement, so pending == 0 at any instant
// proves global quiescence; shards still double-check with the activity
// counter before shutting down.
type shardedAnalyzer struct {
	n       *Node
	shards  []*anShard
	allMask uint64 // bit per shard; shard count is capped at 64

	pending  atomic.Int64
	activity atomic.Int64

	stopping     atomic.Bool
	quiesceOnce  sync.Once
	done         chan struct{}
	shutdownOnce sync.Once

	// injectEnsured dedups the one control message injected stores need: a
	// local store's producer reaches shard 0 via tracker completion, but a
	// store injected from a remote node must materialize its generation's
	// completeness state explicitly.
	injectEnsureMu sync.Mutex
	injectEnsured  map[fieldGen]struct{}

	wg sync.WaitGroup
}

// anShard is one analyzer shard: a goroutine owning the trackers of every
// (kernel, age) pair that hashes to it, its bounded event channel (workers
// and injectors), and an unbounded control mailbox (other shards; posting
// never blocks, so shards cannot deadlock on each other).
type anShard struct {
	sa *shardedAnalyzer
	n  *Node
	id int

	ch     chan []event
	mboxMu sync.Mutex
	mbox   []ctlMsg
	spare  []ctlMsg
	notify chan struct{} // cap 1: wakeup token for mailbox posts

	// kernelAges holds this shard's trackers, by kernel and age.
	kernelAges map[*kernelState]map[int]*ageTracker

	// complete is the shard's field-generation completeness replica, updated
	// only by ctlFieldComplete broadcasts; the intra-shard total order of
	// tracker creation vs. broadcast processing makes bindsDone and
	// whole-fetch satisfaction count exactly once.
	complete map[fieldGen]bool
	// ensured dedups ctlEnsure posts to shard 0.
	ensured map[fieldGen]bool

	dirty        map[*ageTracker]struct{}
	flushScratch []*batch

	// Instrumentation (satellites 1/2/6): per-shard event and busy-time
	// accounting plus high-water marks, max-aggregated across shards by
	// stats() so concurrent shards cannot understate a report column.
	events     counterWithBaseline
	backlogMax *obs.Gauge // nil-safe
	hAnalyze   histWithBase
	maxQueue   int
	maxBacklog int
	busyNs     int64

	// Scratch buffers (per shard, so satisfaction checks never allocate).
	idxBuf    []int
	elemBuf   [4]int
	satCoords []int
	satConstr []bool
}

// scratch returns an index-evaluation buffer of length k.
func (s *anShard) scratch(k int) []int {
	if cap(s.idxBuf) < k {
		s.idxBuf = make([]int, k)
	}
	return s.idxBuf[:k]
}

// eventBuffer is the analyzer's event-channel capacity in event batches,
// split evenly across the shards. Workers flush store/done events in batches
// of up to eventFlushThreshold (64), so 1024 batches buffer ~65k events.
const eventBuffer = 1024

func newShardedAnalyzer(n *Node, shards int) *shardedAnalyzer {
	if shards < 1 {
		shards = 1
	}
	sa := &shardedAnalyzer{
		n:             n,
		done:          make(chan struct{}),
		allMask:       uint64(1)<<uint(shards) - 1,
		injectEnsured: make(map[fieldGen]struct{}),
	}
	buf := eventBuffer / shards
	if buf < eventFlushThreshold {
		buf = eventFlushThreshold
	}
	sa.shards = make([]*anShard, shards)
	for i := range sa.shards {
		s := &anShard{
			sa: sa, n: n, id: i,
			ch:         make(chan []event, buf),
			notify:     make(chan struct{}, 1),
			kernelAges: make(map[*kernelState]map[int]*ageTracker),
			complete:   make(map[fieldGen]bool),
			ensured:    make(map[fieldGen]bool),
			dirty:      make(map[*ageTracker]struct{}),
			events:     newBaselined(n.reg.Counter(obs.Label(obs.MAnalyzerShardEvents, "shard", strconv.Itoa(i)))),
		}
		if n.opts.Metrics != nil {
			s.backlogMax = n.reg.Gauge(obs.Label(obs.MAnalyzerShardBacklogMax, "shard", strconv.Itoa(i)))
			s.hAnalyze = newHistBase(n.reg.Histogram(obs.Label(obs.MStageAnalyzeNs, "shard", strconv.Itoa(i))))
		}
		sa.shards[i] = s
	}
	return sa
}

// shardOf maps a (kernel, age) pair to its owning shard.
func (sa *shardedAnalyzer) shardOf(ks *kernelState, age int) int {
	if len(sa.shards) == 1 {
		return 0
	}
	h := uint64(ks.idx)*0x9E3779B97F4A7C15 + uint64(uint32(age))*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return int(h % uint64(len(sa.shards)))
}

// shardMaskForStore returns the set of shards a store event to generation g
// concerns: owners of consumer trackers whose element-fetch satisfaction
// (and, when the store grew the field, index-range growth) can depend on it.
// An empty mask means the event is dropped at the emitter — whole and slab
// fetches are satisfied by the completeness broadcast, not by store events.
func (sa *shardedAnalyzer) shardMaskForStore(fs *fieldState, g int, grew bool) uint64 {
	if fs.elemBroadcast || (grew && fs.growBroadcast) {
		return sa.allMask
	}
	var m uint64
	for _, r := range fs.elemRoutes {
		if a := g - r.off; a >= 0 {
			m |= 1 << uint(sa.shardOf(r.ks, a))
		}
	}
	if grew {
		for _, r := range fs.growRoutes {
			if a := g - r.off; a >= 0 {
				m |= 1 << uint(sa.shardOf(r.ks, a))
			}
		}
	}
	return m
}

// post delivers a control message to a shard's mailbox. It never blocks: the
// mailbox is unbounded and the notify token is best-effort (a shard drains
// its whole mailbox per wakeup).
func (sa *shardedAnalyzer) post(to int, m ctlMsg) {
	sa.pending.Add(1)
	sa.activity.Add(1)
	s := sa.shards[to]
	s.mboxMu.Lock()
	s.mbox = append(s.mbox, m)
	s.mboxMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (sa *shardedAnalyzer) broadcast(m ctlMsg) {
	for i := range sa.shards {
		sa.post(i, m)
	}
}

// run executes the sharded analyzer to quiescence (or Stop/failure): it posts
// the bootstrap trackers, starts the shard goroutines and waits them out.
func (sa *shardedAnalyzer) run() {
	sa.bootstrap()
	for _, s := range sa.shards {
		sa.wg.Add(1)
		go s.run()
	}
	sa.wg.Wait()
}

// bootstrap creates the trackers that exist before any event: run-once
// kernels and age 0 of source kernels, each on its owning shard.
func (sa *shardedAnalyzer) bootstrap() {
	for _, ks := range sa.n.order {
		if ks.remote {
			continue
		}
		switch {
		case ks.decl.RunOnce():
			sa.post(sa.shardOf(ks, 0), ctlMsg{kind: ctlCreateTracker, ks: ks})
		case ks.decl.Source():
			sa.post(sa.shardOf(ks, 0), ctlMsg{kind: ctlCreateSource, ks: ks, age: 0})
		}
	}
}

// triggerShutdown moves the whole analyzer to the shutdown phase exactly once.
func (sa *shardedAnalyzer) triggerShutdown() {
	sa.quiesceOnce.Do(func() {
		sa.stopping.Store(true)
		close(sa.done)
	})
}

func (sa *shardedAnalyzer) shuttingDown() bool { return sa.stopping.Load() }

// injectEnsure materializes completeness state for a generation stored from
// outside the node (deduped node-wide; see shardedAnalyzer.injectEnsured).
func (sa *shardedAnalyzer) injectEnsure(fs *fieldState, g int) {
	key := fieldGen{fs, g}
	sa.injectEnsureMu.Lock()
	_, seen := sa.injectEnsured[key]
	if !seen {
		sa.injectEnsured[key] = struct{}{}
	}
	sa.injectEnsureMu.Unlock()
	if !seen {
		sa.post(0, ctlMsg{kind: ctlEnsure, fs: fs, age: g})
	}
}

// run is one shard's main loop: drain the control mailbox and event channel,
// flush partial dispatch batches at lulls, detect quiescence, block.
func (s *anShard) run() {
	defer s.sa.wg.Done()
	sa := s.sa
	for {
		s.drainMbox()
		if !s.drainCh() {
			// Channel closed: shutdown already completed elsewhere.
			s.discardMbox()
			return
		}
		if sa.shuttingDown() {
			break
		}
		if s.n.failed() {
			sa.triggerShutdown()
			break
		}
		s.flushDirty()
		if !s.n.opts.NoAutoQuiesce && sa.pending.Load() == 0 {
			// Two-phase check: pending can only be 0 when no unit of work
			// exists anywhere (increments precede the spawning unit's
			// decrement); the activity recheck guards the read pair.
			act := sa.activity.Load()
			if sa.pending.Load() == 0 && sa.activity.Load() == act {
				sa.triggerShutdown()
				break
			}
		}
		select {
		case evs, ok := <-s.ch:
			if !ok {
				s.discardMbox()
				return
			}
			s.handleBatch(evs)
		case <-s.notify:
		case <-sa.done:
		}
	}
	s.shutdown()
}

// shutdown closes the scheduler (workers exit once they drain it), arranges
// for the event channels to close after the workers stop, and discards the
// remaining inflow so no worker blocks on a full channel during teardown.
func (s *anShard) shutdown() {
	s.sa.shutdownOnce.Do(func() {
		s.n.sched.Close()
		s.n.closeEventsWhenWorkersExit()
	})
	for evs := range s.ch {
		putEventBuf(evs)
	}
	s.discardMbox()
}

// drainMbox processes every queued control message (including ones posted to
// this shard while processing).
func (s *anShard) drainMbox() {
	for {
		// The emptiness check must precede the swap: swapping on an empty
		// mailbox and returning would leave spare and mbox sharing one backing
		// array, and concurrent posts would then overwrite messages mid-drain.
		s.mboxMu.Lock()
		if len(s.mbox) == 0 {
			s.mboxMu.Unlock()
			return
		}
		ms := s.mbox
		s.mbox = s.spare[:0]
		s.mboxMu.Unlock()
		var t0 time.Time
		if s.n.stamp {
			t0 = time.Now()
		}
		for i := range ms {
			s.handleCtl(&ms[i])
			s.sa.pending.Add(-1)
		}
		if s.n.stamp {
			s.observeBusy(time.Since(t0))
		}
		s.spare = ms
	}
}

// discardMbox drops queued control messages during shutdown.
func (s *anShard) discardMbox() {
	s.mboxMu.Lock()
	s.mbox = nil
	s.mboxMu.Unlock()
}

// drainCh processes every event batch currently buffered without blocking;
// false once the channel is closed.
func (s *anShard) drainCh() bool {
	for {
		select {
		case evs, ok := <-s.ch:
			if !ok {
				return false
			}
			s.handleBatch(evs)
		default:
			return true
		}
	}
}

func (s *anShard) observeBusy(d time.Duration) {
	s.busyNs += d.Nanoseconds()
	if s.hAnalyze.enabled() {
		s.hAnalyze.Observe(d)
	}
}

// handleBatch processes one flushed batch of events and recycles the slice.
func (s *anShard) handleBatch(evs []event) {
	var t0 time.Time
	if s.n.stamp {
		t0 = time.Now()
	}
	if backlog := len(s.ch); backlog > s.maxBacklog {
		s.maxBacklog = backlog
		s.backlogMax.SetMax(int64(backlog))
	}
	s.events.Add(int64(len(evs)))
	for i := range evs {
		if s.sa.shuttingDown() {
			break
		}
		s.handle(&evs[i])
	}
	putEventBuf(evs)
	if s.n.stamp {
		s.observeBusy(time.Since(t0))
	}
	s.sa.pending.Add(-1)
}

func (s *anShard) handle(ev *event) {
	switch {
	case ev.stop:
		s.sa.triggerShutdown()
		return
	case ev.remoteDone != nil:
		s.handleRemoteDone(ev.remoteDone, ev.age)
	case ev.isDone:
		s.handleDone(ev)
	default:
		s.handleStore(ev)
	}
	s.flushReady()
}

func (s *anShard) handleCtl(m *ctlMsg) {
	switch m.kind {
	case ctlEnsure:
		s.fieldAge(m.fs, m.age)
	case ctlTrackerComplete:
		s.onTrackerComplete(m.t)
	case ctlFieldComplete:
		s.onFieldComplete(m.fs, m.age)
	case ctlCreateTracker:
		s.ensureTracker(m.ks, 0)
	case ctlCreateSource:
		s.sourceTracker(m.ks, m.age)
	}
	s.flushReady()
}

// fieldAge returns (creating on demand) the completeness state of one field
// generation. Only shard 0 — the completion authority — may call it; other
// shards post ctlEnsure. A generation with no relevant producers completes
// immediately.
func (s *anShard) fieldAge(fs *fieldState, g int) *fieldAgeState {
	if fa := fs.ages[g]; fa != nil {
		return fa
	}
	expected := 0
	for _, pe := range fs.producers {
		ae := pe.store.Age
		if ae.HasVar {
			if g-ae.Offset >= 0 {
				expected++
			}
		} else if ae.Offset == g {
			expected++
		}
	}
	fa := &fieldAgeState{expected: expected}
	fs.ages[g] = fa
	if expected == 0 {
		s.markComplete(fs, g, fa)
	}
	return fa
}

// markComplete finalizes a complete field generation on shard 0 and
// broadcasts it; each shard (including 0) reacts in onFieldComplete.
func (s *anShard) markComplete(fs *fieldState, g int, fa *fieldAgeState) {
	fa.complete = true
	fs.f.MarkComplete(g)
	s.sa.broadcast(ctlMsg{kind: ctlFieldComplete, fs: fs, age: g})
}

// ensureFieldGen makes sure completeness state for (fs, g) exists on shard 0,
// deduping repeat requests through the replica and the ensured set.
func (s *anShard) ensureFieldGen(fs *fieldState, g int) {
	key := fieldGen{fs, g}
	if s.complete[key] || s.ensured[key] {
		return
	}
	s.ensured[key] = true
	if s.id == 0 {
		s.fieldAge(fs, g)
	} else {
		s.sa.post(0, ctlMsg{kind: ctlEnsure, fs: fs, age: g})
	}
}

// handleRemoteDone (shard 0) propagates a remote kernel-age completion:
// every field generation it stores to counts the producer as done.
func (s *anShard) handleRemoteDone(ks *kernelState, age int) {
	for i := range ks.decl.Stores {
		ss := &ks.decl.Stores[i]
		g := ss.Age.Eval(age)
		fs := s.n.fields[ss.Field]
		fa := s.fieldAge(fs, g)
		fa.producersDone++
		if fa.producersDone == fa.expected && !fa.complete {
			s.markComplete(fs, g, fa)
		}
	}
}

// ensureTracker returns the tracker for (kernel, age), creating it — with a
// full satisfaction scan over current field state — when it does not exist.
// The caller must be the owning shard. Field extents are read through the
// field's own lock; any store racing the scan re-arrives as a routed event,
// where growth and satisfaction re-checks are idempotent.
func (s *anShard) ensureTracker(ks *kernelState, age int) (*ageTracker, bool) {
	if age < 0 || age > s.n.opts.MaxAge || age > s.n.kernelMaxAge(ks) {
		return nil, false
	}
	ages := s.kernelAges[ks]
	if t := ages[age]; t != nil {
		return t, false
	}
	if ks.remote || ks.decl.Source() || (ks.decl.RunOnce() && age != 0) {
		return nil, false
	}
	t := &ageTracker{ks: ks, age: age, extents: make([]int, len(ks.binds))}
	if ks.needsInstMap {
		t.inst = make(map[int64]*instState)
	}
	if ages == nil {
		ages = make(map[int]*ageTracker)
		s.kernelAges[ks] = ages
	}
	ages[age] = t
	bindDone := 0
	for i, b := range ks.binds {
		ga := b.age.Eval(age)
		t.extents[i] = b.fs.f.Extent(ga, b.dim)
		s.ensureFieldGen(b.fs, ga)
		if s.complete[fieldGen{b.fs, ga}] {
			bindDone++
		}
	}
	t.bindsDone = bindDone
	t.domainFinal = bindDone == len(ks.binds)
	if len(ks.binds) == 0 {
		s.createSingle(t)
	} else {
		from := make([]int, len(ks.binds))
		s.createInstances(t, from, t.extents)
	}
	s.maybeTrackerDone(t)
	return t, true
}

// sourceTracker creates the single-instance tracker for a source kernel at
// the given age; the instance is immediately runnable.
func (s *anShard) sourceTracker(ks *kernelState, age int) {
	if age > s.n.opts.MaxAge || age > s.n.kernelMaxAge(ks) || s.kernelAges[ks][age] != nil {
		return
	}
	t := &ageTracker{ks: ks, age: age, domainFinal: true}
	if ks.needsInstMap {
		t.inst = make(map[int64]*instState)
	}
	ages := s.kernelAges[ks]
	if ages == nil {
		ages = make(map[int]*ageTracker)
		s.kernelAges[ks] = ages
	}
	ages[age] = t
	s.createSingle(t)
}

// burstMask hoists the per-creation-burst part of initial satisfaction: the
// whole/slab fetch bits, which depend only on the completeness replica, are
// computed once per tracker creation or growth burst instead of per instance.
// elems reports whether element fetches remain to check per instance.
func (s *anShard) burstMask(t *ageTracker) (mask0 uint32, elems bool) {
	ks := t.ks
	for i := range ks.fetchPlans {
		fp := &ks.fetchPlans[i]
		if fp.whole || fp.slab != nil {
			g := fp.fe.Age.Eval(t.age)
			s.ensureFieldGen(fp.fs, g)
			if s.complete[fieldGen{fp.fs, g}] {
				mask0 |= uint32(1) << uint(i)
			}
		} else {
			elems = true
		}
	}
	return mask0, elems
}

func (s *anShard) createSingle(t *ageTracker) {
	mask0, elems := s.burstMask(t)
	s.newInst(t, nil, mask0, elems)
}

func (s *anShard) createInstances(t *ageTracker, from, to []int) {
	mask0, elems := s.burstMask(t)
	// Presize the tracker's instance lists for the whole burst: the new-cell
	// count is known up front, and growing element-by-element through append
	// is a measurable share of the analyzer's allocations.
	if add := boxCells(to) - boxCells(from); add > 0 {
		if t.inst == nil && cap(t.all)-len(t.all) < add {
			grown := make([]*instState, len(t.all), len(t.all)+add)
			copy(grown, t.all)
			t.all = grown
		}
		if cap(t.pending)-len(t.pending) < add {
			grown := make([]*instState, len(t.pending), len(t.pending)+add)
			copy(grown, t.pending)
			t.pending = grown
		}
	}
	newCells(from, to, func(c []int) { s.newInst(t, c, mask0, elems) })
}

// newInst registers one instance with the burst's hoisted whole/slab mask and
// checks its element fetches against current field contents.
func (s *anShard) newInst(t *ageTracker, coords []int, mask0 uint32, elems bool) {
	var is *instState
	if s.n.tracer == nil {
		is = instPool.Get().(*instState)
		is.coords = append(is.coords[:0], coords...)
		is.mask, is.st, is.readyNs, is.createdNs = mask0, instWaiting, 0, 0
	} else {
		is = &instState{coords: append([]int(nil), coords...), mask: mask0}
	}
	if s.n.stamp {
		is.createdNs = s.n.nowNs()
	}
	if t.inst != nil {
		t.inst[coordKey(coords)] = is
	} else {
		t.all = append(t.all, is)
	}
	t.total++
	ks := t.ks
	if elems {
		for i := range ks.fetchPlans {
			fp := &ks.fetchPlans[i]
			if fp.whole || fp.slab != nil {
				continue
			}
			bit := uint32(1) << uint(i)
			if is.mask&bit != 0 {
				continue
			}
			g := fp.fe.Age.Eval(t.age)
			idx := evalTerms(s.scratch(len(fp.terms)), fp.terms, is.coords)
			if _, ok := fp.fs.f.At(g, idx...); ok {
				is.mask |= bit
			}
		}
	}
	if is.mask == ks.fullMask {
		s.markReady(t, is)
	}
}

// markReady queues a fully satisfied instance on its tracker's pending list.
// The quiescence count includes it from this moment (not from batch flush),
// so a shard blocking with unflushed partial batches can never be mistaken
// for quiescent by a peer.
func (s *anShard) markReady(t *ageTracker, is *instState) {
	is.st = instQueued
	if s.n.stamp {
		is.readyNs = s.n.nowNs()
		t.ks.stageReady.Observe(time.Duration(is.readyNs - is.createdNs))
	}
	t.pending = append(t.pending, is)
	s.dirty[t] = struct{}{}
	s.sa.pending.Add(1)
}

// setBit records that one fetch of one instance is satisfied.
func (s *anShard) setBit(t *ageTracker, is *instState, bit uint32) {
	if is.st != instWaiting || is.mask&bit != 0 {
		return
	}
	is.mask |= bit
	if is.mask == t.ks.fullMask {
		s.markReady(t, is)
	}
}

// flushReady moves full-granularity batches of ready instances to the
// scheduler in one PushBulk (single epoch update and waiter wakeup); partial
// batches wait for a lull (flushDirty), so stragglers are never stranded but
// the batching amortization is preserved.
func (s *anShard) flushReady() {
	if len(s.dirty) == 0 {
		return
	}
	for t := range s.dirty {
		s.collectBatches(t, false)
	}
	s.pushCollected()
}

func (s *anShard) flushDirty() {
	if len(s.dirty) == 0 {
		return
	}
	for t := range s.dirty {
		s.collectBatches(t, true)
	}
	s.pushCollected()
}

// collectBatches carves a tracker's pending list into dispatch batches of the
// kernel's granularity, compacting the list in place (copy-down with the tail
// nilled) so neither consumed entries nor their backing array leak.
func (s *anShard) collectBatches(t *ageTracker, partial bool) {
	g := int(t.ks.gran.Load())
	if g < 1 {
		g = 1
	}
	for len(t.pending) >= g || (partial && len(t.pending) > 0) {
		k := g
		if k > len(t.pending) {
			k = len(t.pending)
		}
		b := getBatch()
		b.tracker = t
		b.insts = append(b.insts[:0], t.pending[:k]...)
		rem := copy(t.pending, t.pending[k:])
		for i := rem; i < len(t.pending); i++ {
			t.pending[i] = nil
		}
		t.pending = t.pending[:rem]
		s.flushScratch = append(s.flushScratch, b)
	}
	if len(t.pending) == 0 {
		delete(s.dirty, t)
	}
}

func (s *anShard) pushCollected() {
	if len(s.flushScratch) == 0 {
		return
	}
	s.n.sched.PushBulk(s.flushScratch)
	for i := range s.flushScratch {
		s.flushScratch[i] = nil
	}
	s.flushScratch = s.flushScratch[:0]
	if depth := s.n.sched.Len(); depth > s.maxQueue {
		s.maxQueue = depth
	}
	s.updateGauges()
}

// updateGauges refreshes the node's scheduler gauges; all handles are nil
// (no-ops) unless detailed metrics are enabled.
func (s *anShard) updateGauges() {
	n := s.n
	if n.gQueue == nil {
		return
	}
	n.gQueue.Set(int64(n.sched.Len()))
	n.gBacklog.Set(int64(len(s.ch)))
	n.gOutstand.Set(s.sa.pending.Load())
}

// handleDone processes a finished instance: continuation for source kernels,
// adaptive granularity, and kernel-age completion. The quiescence decrement
// comes last, after every message the completion spawns has been posted.
func (s *anShard) handleDone(ev *event) {
	ev.inst.st = instDone
	t := ev.t
	t.done++
	ks := t.ks
	if tr := s.n.tracer; tr != nil {
		tr.Record(obs.Span{
			Name: ks.decl.Name, Cat: "commit", Ph: obs.PhaseInstant,
			TS: tr.Now(), Age: t.age, Index: ev.inst.coords,
		})
	}
	// A source instance that stored and did not stop continues at age+1.
	if ks.decl.Source() && !ev.stopped && ev.stores != 0 {
		next := t.age + 1
		if to := s.sa.shardOf(ks, next); to == s.id {
			s.sourceTracker(ks, next)
		} else {
			s.sa.post(to, ctlMsg{kind: ctlCreateSource, ks: ks, age: next})
		}
	}
	if s.n.opts.Adaptive {
		s.adapt(ks)
	}
	s.maybeTrackerDone(t)
	s.updateGauges()
	s.sa.pending.Add(-1)
}

// adapt implements the low-level scheduler's dynamic data-granularity
// decision (§V-A). gran is atomic: trackers of the same kernel at different
// ages live on different shards.
func (s *anShard) adapt(ks *kernelState) {
	n := ks.ownInstances()
	g := ks.gran.Load()
	if n == 0 || n%128 != 0 || g >= 256 {
		return
	}
	// Means come from the timed instances only (dispatch timing is sampled).
	timed := ks.timedInsts.Load()
	if timed == 0 {
		return
	}
	disp := ks.ownDispatchNs() / timed
	kern := ks.ownKernelNs() / timed
	if kern < 2*disp {
		g *= 2
		if g > 256 {
			g = 256
		}
		ks.gran.Store(g)
	}
}

func (s *anShard) maybeTrackerDone(t *ageTracker) {
	if t.completed || !t.domainFinal || t.done != t.total || len(t.pending) != 0 {
		return
	}
	t.completed = true
	if s.n.tracer == nil {
		// Recycle the instance structs (safe: every instance is done, so no
		// worker or batch will read them again). With tracing on they must
		// survive — recorded spans alias their coords.
		for _, is := range t.inst {
			instPool.Put(is)
		}
		for _, is := range t.all {
			instPool.Put(is)
		}
	}
	t.inst, t.all = nil, nil
	if s.id == 0 {
		s.onTrackerComplete(t)
	} else {
		s.sa.post(0, ctlMsg{kind: ctlTrackerComplete, t: t})
	}
}

// onTrackerComplete (shard 0) propagates a finished kernel-age: producer
// accounting on stored fields, consumer accounting (garbage collection) on
// fetched fields.
func (s *anShard) onTrackerComplete(t *ageTracker) {
	ks := t.ks
	if cb := s.n.opts.OnKernelDone; cb != nil {
		cb(ks.decl.Name, t.age)
	}
	if tr := s.n.tracer; tr != nil {
		tr.Record(obs.Span{
			Name: ks.decl.Name + " done", Cat: "lifecycle", Ph: obs.PhaseInstant,
			TS: tr.Now(), Age: t.age,
		})
	}
	if s.n.gFieldMem != nil {
		s.n.gFieldMem.Set(int64(s.n.FieldMemoryElems()))
	}
	for i := range ks.decl.Stores {
		ss := &ks.decl.Stores[i]
		g := ss.Age.Eval(t.age)
		fs := s.n.fields[ss.Field]
		fa := s.fieldAge(fs, g)
		fa.producersDone++
		if fa.producersDone == fa.expected && !fa.complete {
			s.markComplete(fs, g, fa)
		}
	}
	for i := range ks.decl.Fetches {
		fe := &ks.decl.Fetches[i]
		if !fe.Age.HasVar {
			continue // absolute-age fetches pin the generation forever
		}
		g := fe.Age.Eval(t.age)
		fs := s.n.fields[fe.Field]
		fa := s.fieldAge(fs, g)
		fa.consumersDone++
		s.gcCheck(fs, g, fa)
	}
}

// handleStore processes a store event on every shard it was routed to:
// domain growth for kernels whose index range the field defines, then fetch
// satisfaction for element-fetch consumers. There is no completeness
// bookkeeping here — that is shard 0's job, reached through tracker
// completion.
func (s *anShard) handleStore(ev *event) {
	if ev.grew {
		for _, re := range ev.fs.rangeOf {
			s.forTrackers(re.ks, re.age, ev.age, true, func(t *ageTracker) {
				s.growTracker(t, re.varIdx, ev.extents[re.dim])
			})
		}
	}
	var elem []int
	if !ev.whole {
		elem = ev.elem(&s.elemBuf)
	}
	for _, ce := range ev.fs.consumers {
		if ce.terms == nil {
			continue // whole/slab fetches are satisfied by completeness, not stores
		}
		s.forTrackers(ce.ks, ce.fetch.Age, ev.age, true, func(t *ageTracker) {
			if ev.whole {
				s.scanSatisfy(t, ce)
			} else {
				s.satisfyElem(t, ce, elem)
			}
		})
	}
}

// forTrackers visits this shard's trackers of ks whose fetch/store age
// expression ae maps to field generation g. Trackers owned by other shards
// are skipped — the event or broadcast reaches them there. Freshly created
// trackers are not visited: their creation scan already covers current state.
func (s *anShard) forTrackers(ks *kernelState, ae core.AgeExpr, g int, ensure bool, visit func(*ageTracker)) {
	if ae.HasVar {
		a := g - ae.Offset
		if s.sa.shardOf(ks, a) != s.id {
			return
		}
		var t *ageTracker
		var created bool
		if ensure {
			t, created = s.ensureTracker(ks, a)
		} else {
			t = s.kernelAges[ks][a]
		}
		if t != nil && !created {
			visit(t)
		}
		return
	}
	if ae.Offset != g {
		return
	}
	for _, t := range s.kernelAges[ks] {
		visit(t)
	}
}

// growTracker extends the domain of one index variable and creates the new
// instances.
func (s *anShard) growTracker(t *ageTracker, varIdx, newExt int) {
	if t.completed || newExt <= t.extents[varIdx] {
		return
	}
	from := append([]int(nil), t.extents...)
	t.extents[varIdx] = newExt
	s.createInstances(t, from, t.extents)
}

// satisfyElem marks the fetch bit of every instance whose fetch coordinates
// match a stored element (only reachable for kernels with element fetches,
// which always carry an instance map).
func (s *anShard) satisfyElem(t *ageTracker, ce consEdge, elem []int) {
	if t.completed {
		return
	}
	nv := len(t.ks.decl.IndexVars)
	if cap(s.satCoords) < nv {
		s.satCoords = make([]int, nv)
		s.satConstr = make([]bool, nv)
	}
	coords, constrained := s.satCoords[:nv], s.satConstr[:nv]
	for i := 0; i < nv; i++ {
		coords[i], constrained[i] = 0, false
	}
	for d, term := range ce.terms {
		if term.v >= 0 {
			vi := term.v
			c := elem[d] - term.off
			if c < 0 || c >= t.extents[vi] {
				return // instance does not exist (yet); creation scans cover it
			}
			if constrained[vi] && coords[vi] != c {
				return // e.g. fetch f(a)[x][x] with mismatched coordinates
			}
			coords[vi] = c
			constrained[vi] = true
		} else if term.off != elem[d] {
			return
		}
	}
	s.enumerate(t, coords, constrained, 0, ce.fetchBit)
}

func (s *anShard) enumerate(t *ageTracker, coords []int, constrained []bool, d int, bit uint32) {
	if d == len(coords) {
		if is := t.inst[coordKey(coords)]; is != nil {
			s.setBit(t, is, bit)
		}
		return
	}
	if constrained[d] {
		s.enumerate(t, coords, constrained, d+1, bit)
		return
	}
	for c := 0; c < t.extents[d]; c++ {
		coords[d] = c
		s.enumerate(t, coords, constrained, d+1, bit)
	}
	coords[d] = 0
}

// scanSatisfy re-checks one element fetch against current field contents for
// every instance that still misses it (used after whole/slab stores, which
// cover many elements with one event).
func (s *anShard) scanSatisfy(t *ageTracker, ce consEdge) {
	if t.completed {
		return
	}
	g := ce.fetch.Age.Eval(t.age)
	fs := s.n.fields[ce.fetch.Field]
	for _, is := range t.inst {
		if is.st != instWaiting || is.mask&ce.fetchBit != 0 {
			continue
		}
		idx := evalTerms(s.scratch(len(ce.terms)), ce.terms, is.coords)
		if _, ok := fs.f.At(g, idx...); ok {
			s.setBit(t, is, ce.fetchBit)
		}
	}
}

// onFieldComplete runs on every shard when a field generation completes:
// update the completeness replica, satisfy whole/slab fetches of this shard's
// trackers, finalize index domains bound to the field. Shard 0 additionally
// owns the garbage-collection check.
func (s *anShard) onFieldComplete(fs *fieldState, g int) {
	key := fieldGen{fs, g}
	if s.complete[key] {
		return
	}
	// Flip the replica first: a tracker created by the ensure below then
	// counts this generation in its creation scan and is skipped by
	// forTrackers, keeping bindsDone and satisfaction exactly-once.
	s.complete[key] = true
	for _, ce := range fs.consumers {
		if ce.terms != nil {
			continue
		}
		s.forTrackers(ce.ks, ce.fetch.Age, g, true, func(t *ageTracker) {
			if t.completed {
				return
			}
			for _, is := range t.inst {
				s.setBit(t, is, ce.fetchBit)
			}
			for _, is := range t.all {
				s.setBit(t, is, ce.fetchBit)
			}
		})
	}
	for _, re := range fs.rangeOf {
		reVar := re.varIdx
		s.forTrackers(re.ks, re.age, g, true, func(t *ageTracker) {
			if t.completed {
				return
			}
			// Sync the final extent (stores processed earlier already grew
			// the domain; this is a no-op safeguard).
			s.growTracker(t, reVar, fs.f.Extent(g, re.dim))
			t.bindsDone++
			if t.bindsDone == len(t.ks.binds) {
				t.domainFinal = true
				s.maybeTrackerDone(t)
			}
		})
	}
	if s.id == 0 {
		s.gcCheck(fs, g, fs.ages[g])
	}
}

// gcCheck (shard 0) garbage collects a field generation once it is complete
// and every age-variable consumer kernel-age has finished with it. Safe under
// sharding: consumer completions arrive here via ctlTrackerComplete, so when
// the count is reached the owning shards have already stopped scanning it.
func (s *anShard) gcCheck(fs *fieldState, g int, fa *fieldAgeState) {
	if !s.n.opts.GC || fa == nil || fa.collected {
		return
	}
	if !fa.complete || fs.absConsumers > 0 || fs.agedConsumers == 0 {
		return
	}
	if fa.consumersDone >= fs.agedConsumers {
		fa.collected = true
		fs.f.DropAge(g)
	}
}

// stalled describes every kernel-age that never completed, across all shards.
func (sa *shardedAnalyzer) stalled() []string {
	var out []string
	for _, s := range sa.shards {
		for ks, ages := range s.kernelAges {
			for age, t := range ages {
				if !t.completed {
					var masks string
					for _, is := range t.inst {
						masks += fmt.Sprintf(" inst%v mask=%b st=%d", is.coords, is.mask, is.st)
					}
					for _, is := range t.all {
						masks += fmt.Sprintf(" all%v mask=%b st=%d", is.coords, is.mask, is.st)
					}
					out = append(out, fmt.Sprintf("%s(age=%d): %d/%d instances done, domainFinal=%v shard=%d%s",
						ks.decl.Name, age, t.done, t.total, t.domainFinal, s.id, masks))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
