package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/video"
)

// The benchmark measures P2G from outside: it wraps the public seams each
// layer exposes (video.Source, the MJPEG Out writer, dist.Conn) and times the
// public entry points around them. This file holds those wrappers and the
// span recorder the traced run uses.

// span is one benchmark-recorded interval around a seam call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// (untraced runs) records nothing.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns it; end closes and keeps it.
func (r *recorder) begin(name, label string, parent int64) span {
	if r == nil {
		return span{}
	}
	return span{ID: r.ids.Add(1), Parent: parent, Name: name, Label: label, Start: time.Since(r.t0).Nanoseconds()}
}

func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	s.End = time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as one JSON document at path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// benchConn wraps one of the master's worker connections. It times every
// send (the broker hop), counts messages by kind, and forwards FrameConn,
// StatsReporter and IdleTimeoutConn the way dist.FaultConn does: a wrapper
// that hid SendFrame would move the broker onto the flattening path and so
// measure a different program.
type benchConn struct {
	under  dist.Conn
	rec    *recorder
	parent int64
	onSend func(*dist.Msg)

	sendNs atomic.Int64
	sent   [32]atomic.Int64 // by MsgKind
	recv   [32]atomic.Int64 // by MsgKind
}

var (
	_ dist.FrameConn       = (*benchConn)(nil)
	_ dist.StatsReporter   = (*benchConn)(nil)
	_ dist.IdleTimeoutConn = (*benchConn)(nil)
)

func newBenchConn(c dist.Conn, rec *recorder, parent int64, onSend func(*dist.Msg)) *benchConn {
	return &benchConn{under: c, rec: rec, parent: parent, onSend: onSend}
}

func (c *benchConn) count(tab *[32]atomic.Int64, k dist.MsgKind) {
	if int(k) < len(tab) {
		tab[k].Add(1)
	}
}

func (c *benchConn) Send(m *dist.Msg) error {
	sp := c.rec.begin("conn.send", m.Kind.String(), c.parent)
	t := time.Now()
	err := c.under.Send(m)
	c.sendNs.Add(int64(time.Since(t)))
	c.rec.end(sp)
	c.count(&c.sent, m.Kind)
	if c.onSend != nil {
		c.onSend(m)
	}
	return err
}

// SendFrame forwards scatter-gather sends when the underlying transport
// supports them, flattening into a plain Send otherwise.
func (c *benchConn) SendFrame(m *dist.Msg, segs net.Buffers) error {
	fc, ok := c.under.(dist.FrameConn)
	if !ok {
		env := *m
		var flat []byte
		for _, s := range segs {
			flat = append(flat, s...)
		}
		env.Frame = flat
		env.FrameLen = 0
		return c.Send(&env)
	}
	sp := c.rec.begin("conn.send", m.Kind.String(), c.parent)
	t := time.Now()
	err := fc.SendFrame(m, segs)
	c.sendNs.Add(int64(time.Since(t)))
	c.rec.end(sp)
	c.count(&c.sent, m.Kind)
	if c.onSend != nil {
		c.onSend(m)
	}
	return err
}

func (c *benchConn) Recv() (*dist.Msg, error) {
	sp := c.rec.begin("conn.recv", "", c.parent)
	m, err := c.under.Recv()
	if m != nil {
		sp.Label = m.Kind.String()
		c.count(&c.recv, m.Kind)
	}
	c.rec.end(sp)
	return m, err
}

func (c *benchConn) Close() error { return c.under.Close() }

// SetIdleTimeout forwards to the underlying transport when supported.
func (c *benchConn) SetIdleTimeout(d time.Duration) { dist.SetConnIdleTimeout(c.under, d) }

// Stats forwards to the underlying transport when supported.
func (c *benchConn) Stats() dist.ConnStats {
	if sr, ok := c.under.(dist.StatsReporter); ok {
		return sr.Stats()
	}
	return dist.ConnStats{}
}

// stream is one workload's pre-generated input: the raw frames every job
// encodes and the reference encoding of each.
type stream struct {
	frames []*video.Frame
	refs   [][]byte
	// period paces the source (open loop); zero hands frames out as fast as
	// the program asks for them.
	period time.Duration
}

// frameJob is one encode of the whole stream: the source and sink of every
// program build of the job report into it.
type frameJob struct {
	st     *stream
	rec    *recorder
	parent int64

	mu        sync.Mutex
	start     time.Time   // job start (set-up begins)
	firstNext time.Time   // set-up ends at the first Source.Next
	stamp     []time.Time // latency origin per frame: due time, or Next return
	returned  []time.Time // first Next return per frame
	written   []time.Time // first write per frame
	lastWrite time.Time
	bad       int // writes that differ from the reference
	dups      int // correct re-writes of an already written frame
	waitNs    int64
	lateMax   time.Duration

	// Failover: the writer's link is severed right after frame severAt is
	// written (-1 disables). recovered is the first write, by a live build,
	// of a frame not written before the sever.
	severAt      int
	severed      time.Time
	recovered    time.Time
	masterConns  []*benchConn
	bytesAtSever int64
	replayBytes  int64
}

func newFrameJob(st *stream, rec *recorder, parent int64) *frameJob {
	return &frameJob{
		st:       st,
		rec:      rec,
		parent:   parent,
		start:    time.Now(),
		stamp:    make([]time.Time, len(st.frames)),
		returned: make([]time.Time, len(st.frames)),
		written:  make([]time.Time, len(st.frames)),
		severAt:  -1,
	}
}

// masterSentBytes sums the bytes the master has sent on all worker links.
// Called with j.mu held.
func (j *frameJob) masterSentBytes() int64 {
	var n int64
	for _, c := range j.masterConns {
		n += c.Stats().SentBytes
	}
	return n
}

// pacedSource is the video.Source of one program build. Under a pacing
// period it behaves as a capture device: frame i is due period×i after the
// first Next, and Next blocks until then.
type pacedSource struct {
	j    *frameJob
	next int
}

func (s *pacedSource) Next() (*video.Frame, error) {
	j := s.j
	if s.next >= len(j.st.frames) {
		return nil, io.EOF
	}
	i := s.next
	s.next++
	sp := j.rec.begin("source.next", "", j.parent)
	called := time.Now()
	j.mu.Lock()
	if j.firstNext.IsZero() {
		j.firstNext = called
	}
	due := j.firstNext.Add(time.Duration(i) * j.st.period)
	j.mu.Unlock()
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	now := time.Now()
	j.mu.Lock()
	j.waitNs += int64(now.Sub(called))
	if j.stamp[i].IsZero() {
		j.returned[i] = now
		if j.st.period > 0 {
			j.stamp[i] = due
			if late := now.Sub(due); late > j.lateMax {
				j.lateMax = late
			}
		} else {
			j.stamp[i] = now
		}
	}
	j.mu.Unlock()
	j.rec.end(sp)
	return j.st.frames[i], nil
}

// sink is the MJPEG Out writer of one program build. It checks every frame
// against the reference and timestamps first writes.
type sink struct {
	j     *frameJob
	idx   int
	dead  bool   // this build's link was severed
	sever func() // closes this build's link; nil when it may not sever
}

func (k *sink) Write(p []byte) (int, error) {
	j := k.j
	sp := j.rec.begin("sink.write", "", j.parent)
	now := time.Now()
	j.mu.Lock()
	i := k.idx
	k.idx++
	switch {
	case i >= len(j.st.refs) || !bytes.Equal(p, j.st.refs[i]):
		j.bad++
	case !j.written[i].IsZero():
		j.dups++
	default:
		j.written[i] = now
		j.lastWrite = now
		if !j.severed.IsZero() && !k.dead && j.recovered.IsZero() {
			j.recovered = now
			j.replayBytes = j.masterSentBytes() - j.bytesAtSever
		}
	}
	sever := k.sever != nil && i == j.severAt && j.severed.IsZero()
	if sever {
		k.dead = true
		j.severed = time.Now()
		j.bytesAtSever = j.masterSentBytes()
	}
	j.mu.Unlock()
	if sever {
		k.sever()
	}
	j.rec.end(sp)
	return len(p), nil
}

// latencies returns the per-frame latency of every written frame in ms,
// and the active span from the first Next to the last first-write.
func (j *frameJob) latencies() (lat []float64, active time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, w := range j.written {
		if !w.IsZero() && !j.stamp[i].IsZero() {
			lat = append(lat, ms(w.Sub(j.stamp[i])))
		}
	}
	if !j.firstNext.IsZero() && j.lastWrite.After(j.firstNext) {
		active = j.lastWrite.Sub(j.firstNext)
	}
	return lat, active
}

// failedFrames counts frames that were never written correctly plus
// incorrect writes.
func (j *frameJob) failedFrames() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.bad
	for _, w := range j.written {
		if w.IsZero() {
			n++
		}
	}
	if n > len(j.written) {
		n = len(j.written)
	}
	return n
}
