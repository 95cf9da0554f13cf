// Package dist implements P2G's distributed layer (paper figure 1): a master
// node that collects the global topology, partitions the workload with the
// high-level scheduler and assigns partitions to execution nodes; execution
// nodes that run their partition on the local runtime; and the event-based
// publish-subscribe distribution of store and completion events between
// nodes.
//
// Messages flow over a Transport. Two implementations are provided: an
// in-process transport (for tests and single-machine experiments) and TCP
// with gob encoding (for real deployments via cmd/p2g-master and
// cmd/p2g-worker). The master acts as the pub-sub broker: each worker
// publishes its store/done events once, and the master forwards them to the
// nodes whose kernels subscribe to the stored fields, preserving per-origin
// order.
package dist

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is a bidirectional, ordered message channel between two nodes.
type Conn interface {
	Send(*Msg) error
	Recv() (*Msg, error)
	Close() error
}

// IdleTimeoutConn is implemented by transports whose operations can be
// deadline-bounded. With a non-zero timeout, a Recv that sees no message for
// the duration — and, on TCP, a Send that cannot make progress — fails with
// an error containing "idle timeout" instead of blocking forever. This is the
// failure-detection primitive: a half-open TCP connection (peer machine gone,
// no RST ever arrives) otherwise wedges a blocking read indefinitely.
type IdleTimeoutConn interface {
	Conn
	SetIdleTimeout(d time.Duration)
}

// SetConnIdleTimeout applies an idle timeout when the transport supports one;
// it is a no-op otherwise, so callers need not type-switch.
func SetConnIdleTimeout(c Conn, d time.Duration) {
	if ic, ok := c.(IdleTimeoutConn); ok {
		ic.SetIdleTimeout(d)
	}
}

// FrameConn is implemented by transports that can send a store-frame payload
// scatter-gather style: the envelope is encoded with Frame nil and FrameLen
// set, then the segment vector is written raw (writev) after it, so slab
// bytes reach the socket without an intermediate contiguous copy. SendFrame
// must not mutate m — the broker shares one envelope across subscribers —
// and must not retain segs past the call.
type FrameConn interface {
	Conn
	SendFrame(m *Msg, segs net.Buffers) error
}

// ConnStats holds cumulative transport counters for one connection end.
// Byte counts cover the encoded wire form; the in-process transport moves
// pointers, so its byte counts stay zero.
type ConnStats struct {
	SentMsgs  int64
	RecvMsgs  int64
	SentBytes int64
	RecvBytes int64
}

// StatsReporter is implemented by transports that count their traffic; the
// worker and master fold these counters into metrics and reports.
type StatsReporter interface {
	Stats() ConnStats
}

// connStats tracks a connection's traffic with atomics (Send and Recv run
// on different goroutines).
type connStats struct {
	sentMsgs, recvMsgs, sentBytes, recvBytes atomic.Int64
}

func (s *connStats) Stats() ConnStats {
	return ConnStats{
		SentMsgs:  s.sentMsgs.Load(),
		RecvMsgs:  s.recvMsgs.Load(),
		SentBytes: s.sentBytes.Load(),
		RecvBytes: s.recvBytes.Load(),
	}
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// ---- in-process transport ----

type inprocConn struct {
	out  chan<- *Msg
	in   <-chan *Msg
	once sync.Once
	done chan struct{}
	peer *inprocConn
	idle atomic.Int64 // idle timeout in nanoseconds; 0 = none
	connStats
}

// SetIdleTimeout implements IdleTimeoutConn: Recv fails after d of silence.
func (c *inprocConn) SetIdleTimeout(d time.Duration) { c.idle.Store(int64(d)) }

// InprocPipe returns a connected pair of in-process connections.
func InprocPipe() (Conn, Conn) {
	ab := make(chan *Msg, 1024)
	ba := make(chan *Msg, 1024)
	a := &inprocConn{out: ab, in: ba, done: make(chan struct{})}
	b := &inprocConn{out: ba, in: ab, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *inprocConn) Send(m *Msg) error {
	// Check closure first: the buffered data channel may still have room,
	// and select would otherwise pick it nondeterministically.
	select {
	case <-c.done:
		return fmt.Errorf("dist: send on closed connection")
	case <-c.peer.done:
		return fmt.Errorf("dist: peer closed")
	default:
	}
	select {
	case <-c.done:
		return fmt.Errorf("dist: send on closed connection")
	case <-c.peer.done:
		return fmt.Errorf("dist: peer closed")
	case c.out <- m:
		c.sentMsgs.Add(1)
		return nil
	}
}

func (c *inprocConn) Recv() (*Msg, error) {
	var timeout <-chan time.Time
	if d := c.idle.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m := <-c.in:
		c.recvMsgs.Add(1)
		return m, nil
	case <-c.done:
		return nil, fmt.Errorf("dist: connection closed")
	case <-timeout:
		return nil, fmt.Errorf("dist: idle timeout after %v", time.Duration(c.idle.Load()))
	case <-c.peer.done:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-c.in:
			c.recvMsgs.Add(1)
			return m, nil
		default:
			return nil, fmt.Errorf("dist: peer closed")
		}
	}
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// ---- TCP transport ----

type tcpConn struct {
	nc  net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	// br feeds the decoder and the raw frame reads after SendFrame-split
	// envelopes. gob uses it as an io.ByteReader and so never reads ahead
	// past a message boundary, leaving the raw frame bytes for Recv.
	br   *bufio.Reader
	mu   sync.Mutex
	idle atomic.Int64 // idle timeout in nanoseconds; 0 = none
	connStats
}

// SetIdleTimeout implements IdleTimeoutConn: every subsequent Recv arms a
// read deadline and every Send a write deadline, so a half-open peer surfaces
// as an error instead of a forever-blocked syscall. Zero clears any armed
// deadline.
func (c *tcpConn) SetIdleTimeout(d time.Duration) {
	c.idle.Store(int64(d))
	if d == 0 {
		c.nc.SetDeadline(time.Time{})
	}
}

// idleErr rewraps a deadline-exceeded transport error so callers (and
// humans) see the liveness meaning, not just "i/o timeout".
func (c *tcpConn) idleErr(op string, err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("dist: idle timeout after %v (%s): %w", time.Duration(c.idle.Load()), op, err)
	}
	return err
}

// countingWriter / countingReader wrap the TCP stream so the gob encoders
// count encoded wire bytes as a side effect.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// DialTCP connects to a master's TCP listener.
func DialTCP(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

func newTCPConn(nc net.Conn) Conn {
	c := &tcpConn{nc: nc}
	c.enc = gob.NewEncoder(countingWriter{w: nc, n: &c.sentBytes})
	c.br = bufio.NewReader(countingReader{r: nc, n: &c.recvBytes})
	c.dec = gob.NewDecoder(c.br)
	return c
}

func (c *tcpConn) Send(m *Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.idle.Load(); d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	if err := c.enc.Encode(m); err != nil {
		return c.idleErr("send", err)
	}
	c.sentMsgs.Add(1)
	return nil
}

// SendFrame implements FrameConn: the envelope goes through gob with
// FrameLen announcing the payload, then the segments hit the socket raw via
// net.Buffers (writev on platforms that support it) — no contiguous copy of
// the frame is ever built on the send side.
func (c *tcpConn) SendFrame(m *Msg, segs net.Buffers) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	env := *m // the caller may share m across subscribers; never mutate it
	env.Frame = nil
	env.FrameLen = total
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.idle.Load(); d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	if err := c.enc.Encode(&env); err != nil {
		return c.idleErr("send", err)
	}
	n, err := segs.WriteTo(c.nc)
	c.sentBytes.Add(n)
	if err != nil {
		return c.idleErr("send", err)
	}
	c.sentMsgs.Add(1)
	return nil
}

// maxRecvFrameLen bounds the raw frame length accepted on receive, so a
// corrupt or malicious FrameLen cannot demand unbounded memory.
const maxRecvFrameLen = 1 << 30

// recvChunk is the largest raw frame Recv allocates up front. Longer frames
// grow as their bytes arrive, so a peer that announces more than it sends
// costs memory in proportion to what it actually sent.
const recvChunk = 1 << 20

// readRawFrame reads an n-byte raw frame. A frame of one chunk or less takes
// exactly one allocation of its exact size (the cluster hot path).
func readRawFrame(r io.Reader, n int) ([]byte, error) {
	if n <= recvChunk {
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, err
		}
		return raw, nil
	}
	var buf bytes.Buffer
	buf.Grow(recvChunk)
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c *tcpConn) Recv() (*Msg, error) {
	if d := c.idle.Load(); d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(time.Duration(d)))
	}
	m := &Msg{}
	if err := c.dec.Decode(m); err != nil {
		return nil, c.idleErr("recv", err)
	}
	if m.FrameLen != 0 {
		if m.FrameLen < 0 || m.FrameLen > maxRecvFrameLen {
			return nil, fmt.Errorf("dist: frame length %d out of range", m.FrameLen)
		}
		if d := c.idle.Load(); d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(time.Duration(d)))
		}
		raw, err := readRawFrame(c.br, m.FrameLen)
		if err != nil {
			return nil, fmt.Errorf("dist: reading raw store frame: %w", c.idleErr("recv", err))
		}
		m.Frame = raw
		m.FrameLen = 0
	}
	c.recvMsgs.Add(1)
	return m, nil
}

func (c *tcpConn) Close() error { return c.nc.Close() }

// pushbackConn replays one already-received message before delegating to the
// underlying connection. The master CLI uses it to classify inbound workers
// (MRegister vs MJoin) at accept time without consuming the registration that
// RunMaster expects to read itself. All optional transport capabilities
// (FrameConn, StatsReporter, IdleTimeoutConn) forward, so wrapping costs the
// connection nothing.
type pushbackConn struct {
	under Conn
	mu    sync.Mutex
	first *Msg
}

// NewPushbackConn wraps c so its next Recv returns first.
func NewPushbackConn(c Conn, first *Msg) Conn {
	return &pushbackConn{under: c, first: first}
}

func (c *pushbackConn) Send(m *Msg) error { return c.under.Send(m) }

func (c *pushbackConn) SendFrame(m *Msg, segs net.Buffers) error {
	if fc, ok := c.under.(FrameConn); ok {
		return fc.SendFrame(m, segs)
	}
	env := *m
	var flat []byte
	for _, s := range segs {
		flat = append(flat, s...)
	}
	env.Frame = flat
	env.FrameLen = 0
	return c.under.Send(&env)
}

func (c *pushbackConn) Recv() (*Msg, error) {
	c.mu.Lock()
	if m := c.first; m != nil {
		c.first = nil
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	return c.under.Recv()
}

func (c *pushbackConn) Close() error { return c.under.Close() }

// SetIdleTimeout forwards to the underlying transport when supported.
func (c *pushbackConn) SetIdleTimeout(d time.Duration) { SetConnIdleTimeout(c.under, d) }

// Stats forwards to the underlying transport when supported.
func (c *pushbackConn) Stats() ConnStats {
	if sr, ok := c.under.(StatsReporter); ok {
		return sr.Stats()
	}
	return ConnStats{}
}

type tcpListener struct{ l net.Listener }

// ListenTCP opens a TCP listener for a master node; addr may use port 0 for
// an ephemeral port (see Addr).
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listening on %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	nc, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }
