package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// Span phases, mirroring the Chrome trace_event "ph" field.
const (
	PhaseComplete = 'X' // a kernel-instance dispatch with a duration
	PhaseInstant  = 'i' // a lifecycle tick (commit, kernel-age done)
)

// Flow roles for spans that participate in a cross-node causal trace: a
// store frame's journey worker→broker→worker is stitched into one Chrome
// flow arrow by tagging the emitting, forwarding and injecting spans.
const (
	FlowStart  = 's' // origin of the causal chain (frame emitted)
	FlowStep   = 't' // intermediate hop (master broker forward)
	FlowFinish = 'f' // terminal hop (frame injected at the destination)
)

// Span is one recorded kernel-instance lifecycle event. A complete span
// covers one dispatch (ready → fetched → executed → stored) with the phase
// breakdown in WaitNs/FetchNs/KernelNs/StoreNs; instant spans mark the
// analyzer-side lifecycle ticks (instance committed, kernel-age done).
type Span struct {
	Name  string // kernel name
	Cat   string // "kernel", "commit", "lifecycle"
	Ph    byte   // PhaseComplete or PhaseInstant
	TS    int64  // nanoseconds since the tracer started
	Dur   int64  // span duration in nanoseconds (complete spans)
	TID   int    // worker goroutine id (0 = analyzer)
	Age   int    // kernel age coordinate
	Index []int  // index-variable coordinates (shared, do not mutate)

	// Dispatch phase breakdown, nanoseconds (complete spans only).
	WaitNs   int64 // ready-queue wait before the dispatch began
	FetchNs  int64 // context construction + fetches
	KernelNs int64 // kernel body
	StoreNs  int64 // store application + event emission

	// Causal trace linkage (cross-node store frames). Trace is the frame's
	// cluster-unique id (0 = not part of a flow); Flow tags this span's
	// role in the chain (FlowStart/FlowStep/FlowFinish, 0 = none).
	Trace uint64
	Flow  byte
}

// Tracer records Spans into a bounded ring buffer: when full, the oldest
// spans are overwritten and counted as dropped. All methods are safe on a
// nil receiver (no-ops), so tracing costs one nil check when disabled.
type Tracer struct {
	start time.Time
	pid   int

	mu      sync.Mutex
	buf     []Span
	next    uint64 // total spans ever recorded
	dropped *Counter
}

// DefaultTraceCapacity bounds the ring when NewTracer is given no capacity.
const DefaultTraceCapacity = 1 << 16

// NewTracer creates a tracer whose ring holds capacity spans (<=0 selects
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{start: time.Now(), pid: 1, buf: make([]Span, 0, capacity)}
}

// SetPID sets the Chrome-trace process id emitted for this tracer's spans
// (distributed deployments give each node its own pid lane).
func (t *Tracer) SetPID(pid int) {
	if t != nil {
		t.pid = pid
	}
}

// CountDropped reports ring evictions on the given counter.
func (t *Tracer) CountDropped(c *Counter) {
	if t != nil {
		t.dropped = c
	}
}

// Now returns nanoseconds since the tracer started; zero on a nil receiver.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// StartTime returns the wall-clock instant the tracer started (its TS==0
// origin); the zero time on a nil receiver.
func (t *Tracer) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StartUnixNs returns the tracer's start instant as UnixNano, the anchor
// merged cluster traces align node timelines with. Zero on a nil receiver.
func (t *Tracer) StartUnixNs() int64 {
	if t == nil {
		return 0
	}
	return t.start.UnixNano()
}

// Len returns the number of spans currently retained in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Since converts a wall-clock instant into tracer-relative nanoseconds.
func (t *Tracer) Since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.start).Nanoseconds()
}

// Record appends one span, evicting the oldest when the ring is full.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next%uint64(cap(t.buf))] = s
		t.dropped.Add(1)
	}
	t.next++
	t.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	spans, _ := t.SpansFrom(0, math.MaxInt)
	return spans
}

// SpansFrom returns up to limit retained spans, oldest first, starting at
// sequence number seq (the number of spans recorded before it; spans
// evicted before the call are skipped), and the sequence number after the
// last span returned. Walking the ring with it copies one bounded chunk at
// a time.
func (t *Tracer) SpansFrom(seq uint64, limit int) ([]Span, uint64) {
	if t == nil {
		return nil, seq
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seq = max(seq, t.next-uint64(len(t.buf)))
	n := 0
	if seq < t.next {
		n = int(min(uint64(limit), t.next-seq))
	}
	out := make([]Span, n)
	i := int(seq % uint64(cap(t.buf)))
	k := copy(out, t.buf[i:min(len(t.buf), i+n)])
	copy(out[k:], t.buf[:n-k])
	return out, seq + uint64(n)
}

// Dropped returns how many spans were evicted from the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		return 0
	}
	return int64(t.next) - int64(cap(t.buf))
}

// chromeEvent is the trace_event JSON wire form
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant-event scope
	ID   string         `json:"id,omitempty"` // flow-event binding id
	BP   string         `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the top-level trace_event JSON object.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes the retained spans as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. Each complete span becomes one
// slice named after its kernel, carrying age, index and the dispatch phase
// breakdown as args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.chromeFile()); err != nil {
		return err
	}
	return bw.Flush()
}

// appendSpanEvents converts one span into trace_event form and appends it to
// dst: the slice or instant event itself, plus a flow event when the span is
// tagged as a causal-chain endpoint. tsUS is the event timestamp on the
// output timeline in microseconds (the caller owns clock alignment).
func appendSpanEvents(dst []chromeEvent, s Span, pid int, tsUS float64) []chromeEvent {
	ev := chromeEvent{
		Name: s.Name,
		Cat:  s.Cat,
		Ph:   string(rune(s.Ph)),
		TS:   tsUS,
		PID:  pid,
		TID:  s.TID,
		Args: map[string]any{"age": s.Age},
	}
	if len(s.Index) > 0 {
		ev.Args["index"] = s.Index
	}
	switch s.Ph {
	case PhaseComplete:
		ev.Dur = float64(s.Dur) / 1e3
		ev.Args["wait_us"] = float64(s.WaitNs) / 1e3
		ev.Args["fetch_us"] = float64(s.FetchNs) / 1e3
		ev.Args["kernel_us"] = float64(s.KernelNs) / 1e3
		ev.Args["store_us"] = float64(s.StoreNs) / 1e3
	case PhaseInstant:
		ev.S = "t" // thread-scoped tick
	}
	if s.Trace != 0 {
		ev.Args["trace"] = strconv.FormatUint(s.Trace, 16)
	}
	dst = append(dst, ev)
	if s.Trace != 0 && s.Flow != 0 {
		// Flow events with the same cat/name/id draw one causal arrow
		// across processes; placing them mid-slice keeps the binding
		// inside the slice's duration.
		fl := chromeEvent{
			Name: "frame",
			Cat:  "dist.flow",
			Ph:   string(rune(s.Flow)),
			TS:   tsUS + ev.Dur/2,
			PID:  pid,
			TID:  s.TID,
			ID:   strconv.FormatUint(s.Trace, 16),
		}
		if s.Flow == FlowFinish {
			fl.BP = "e" // bind to the enclosing slice, not the next one
		}
		dst = append(dst, fl)
	}
	return dst
}

func (t *Tracer) chromeFile() chromeTraceFile {
	spans := t.Spans()
	f := chromeTraceFile{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	pid := 1
	if t != nil {
		pid = t.pid
	}
	for _, s := range spans {
		f.TraceEvents = appendSpanEvents(f.TraceEvents, s, pid, float64(s.TS)/1e3)
	}
	return f
}

// NodeTrace bundles one node's span buffer with the alignment data needed to
// merge it into a cluster-wide trace: the tracer's wall-clock start on that
// node's own clock, and the node's estimated clock offset relative to the
// reference (master) clock as measured during the dist handshake.
type NodeTrace struct {
	Node        string // display name ("master", worker id)
	PID         int    // Chrome-trace process lane
	StartUnixNs int64  // tracer start, UnixNano on the node's own clock
	OffsetNs    int64  // node clock minus reference clock (0 = reference/unsynced)
	Dropped     int64  // spans evicted from the node's ring
	Spans       []Span
}

// NodeTrace snapshots this tracer as a mergeable bundle. Safe on a nil
// receiver (returns an empty bundle carrying only the name and pid).
func (t *Tracer) NodeTrace(node string, pid int) NodeTrace {
	return NodeTrace{
		Node:        node,
		PID:         pid,
		StartUnixNs: t.StartUnixNs(),
		Dropped:     t.Dropped(),
		Spans:       t.Spans(),
	}
}

// WriteMergedChromeTrace merges span bundles from several nodes into one
// Chrome trace_event file on a common timeline: each node's timestamps are
// rebased to the reference clock (UnixNano − OffsetNs), the earliest tracer
// start across nodes becomes t=0, and each node gets its own pid lane with a
// process_name metadata record. Spans tagged with a Trace id emit flow
// events, so a frame's worker→broker→worker journey renders as one arrow.
func WriteMergedChromeTrace(w io.Writer, nodes []NodeTrace) error {
	var base int64
	haveBase := false
	for _, n := range nodes {
		if len(n.Spans) == 0 {
			continue
		}
		ref := n.StartUnixNs - n.OffsetNs
		if !haveBase || ref < base {
			base, haveBase = ref, true
		}
	}
	f := chromeTraceFile{DisplayTimeUnit: "ms"}
	for _, n := range nodes {
		if len(n.Spans) == 0 {
			continue
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  n.PID,
			Args: map[string]any{"name": n.Node},
		})
		start := n.StartUnixNs - n.OffsetNs - base
		for _, s := range n.Spans {
			f.TraceEvents = appendSpanEvents(f.TraceEvents, s, n.PID, float64(start+s.TS)/1e3)
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(f); err != nil {
		return err
	}
	return bw.Flush()
}
