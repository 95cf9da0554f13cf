package dist

import (
	"hash/fnv"
	"sync"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// Flush thresholds for the store batcher: a generation's frame is emitted
// early once it holds this many bytes or entries, bounding both message size
// and the master's replay cost per frame. Generations smaller than the
// thresholds ride until the kernel age completes (or the next ping).
const (
	frameFlushBytes   = 64 << 10
	frameFlushEntries = 512
)

// genKey identifies one field generation.
type genKey struct {
	field string
	age   int
}

// storeBatcher coalesces per-row store notices into whole-generation frames
// on the worker send path. Stores accumulate per (field, age); flushAll emits
// pending frames in first-store order, which — combined with flushing before
// every MDone — preserves the per-origin stores-before-done order the master
// broker and downstream consumers rely on.
//
// Frames come from the runtime frame pool and are handed to emit together
// with the routing envelope (whose Frame field is left nil): emit writes the
// frame's segments scatter-gather and then recycles it.
type storeBatcher struct {
	mu     sync.Mutex
	frames map[genKey]*runtime.StoreFrame
	traces map[genKey]uint64
	order  []genKey
	emit   func(*Msg, *runtime.StoreFrame)

	// Causal tracing (nil tracer disables it and keeps frames in the
	// untraced v1 layout): each frame gets a cluster-unique trace id —
	// node-seed in the high bits, a local sequence in the low bits — stamped
	// into both the frame header and the Msg envelope, and emission records
	// the flow-start span of the frame's cross-node journey.
	tracer *obs.Tracer
	seed   uint64
	seq    uint64

	mFrames *obs.Counter
	mBytes  *obs.Counter
	mStores *obs.Counter
}

// newStoreBatcher creates a batcher that hands finished frames to emit.
// Metrics handles may be nil (obs metrics are nil-safe); a nil tracer
// disables causal trace ids.
func newStoreBatcher(emit func(*Msg, *runtime.StoreFrame), reg *obs.Registry, nodeID string, tracer *obs.Tracer) *storeBatcher {
	h := fnv.New64a()
	h.Write([]byte(nodeID))
	return &storeBatcher{
		frames:  map[genKey]*runtime.StoreFrame{},
		traces:  map[genKey]uint64{},
		emit:    emit,
		tracer:  tracer,
		seed:    h.Sum64(),
		mFrames: reg.Counter(obs.MDistFramesTotal),
		mBytes:  reg.Counter(obs.MDistFrameBytesTotal),
		mStores: reg.Counter(obs.MDistFrameStores),
	}
}

// add appends one store notice to its generation's frame, emitting the frame
// immediately when it crosses a flush threshold. Safe on a nil batcher.
func (b *storeBatcher) add(sn runtime.StoreNotice) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	k := genKey{field: sn.Field, age: sn.Age}
	f := b.frames[k]
	if f == nil {
		f = runtime.GetStoreFrame()
		if b.tracer != nil {
			// Low 32 bits are the local sequence (nonzero), high bits the
			// node seed: unique across the cluster for practical runs.
			b.seq++
			trace := (b.seed << 32) | (b.seq & 0xffffffff)
			b.traces[k] = trace
			f.ResetTraced(sn.Field, sn.Age, trace)
		} else {
			f.Reset(sn.Field, sn.Age)
		}
		b.frames[k] = f
		b.order = append(b.order, k)
	}
	if err := f.Add(sn); err != nil {
		return err
	}
	if f.Len() >= frameFlushBytes || f.Entries() >= frameFlushEntries {
		b.emitLocked(k, f)
	}
	return nil
}

// flushAll emits every pending frame in first-store order. Safe on a nil
// batcher.
func (b *storeBatcher) flushAll() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range b.order {
		if f := b.frames[k]; f != nil {
			b.emitLocked(k, f)
		}
	}
	b.order = b.order[:0]
}

// emitLocked sends one frame and forgets it; the caller holds b.mu. The key
// stays in b.order when called from add — flushAll skips the deleted entry.
func (b *storeBatcher) emitLocked(k genKey, f *runtime.StoreFrame) {
	trace := b.traces[k]
	delete(b.frames, k)
	delete(b.traces, k)
	b.mFrames.Inc()
	b.mBytes.Add(int64(f.Len()))
	b.mStores.Add(int64(f.Entries()))
	emitFrom := b.tracer.Now()
	b.emit(&Msg{Kind: MStoreFrame, Field: k.field, Age: k.age, Trace: trace}, f)
	if tr := b.tracer; tr != nil {
		// Flow start of the frame's causal journey: handing the encoded
		// generation to the transport.
		tr.Record(obs.Span{
			Name: "emit " + k.field, Cat: "dist", Ph: obs.PhaseComplete,
			TS: emitFrom, Dur: tr.Now() - emitFrom,
			Age: k.age, Trace: trace, Flow: obs.FlowStart,
		})
	}
}
