// Package dist implements P2G's distributed layer (paper figure 1): a master
// node that collects the global topology, partitions the workload with the
// high-level scheduler and assigns partitions to execution nodes; execution
// nodes that run their partition on the local runtime; and the event-based
// publish-subscribe distribution of store and completion events between
// nodes.
//
// Messages flow over one stream codec: a gob envelope per message, followed
// by the raw bytes of its store frame when it carries one. Every Conn speaks
// it — TCP for real deployments (cmd/p2g-master, cmd/p2g-worker) and Pipe, a
// loopback TCP pair, for tests and single-process runs — so what the tests
// exercise is what deployments run. The master acts as the pub-sub broker:
// each worker publishes its store/done events once, and the master forwards
// them to the nodes whose kernels subscribe to the stored fields, preserving
// per-origin order.
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

// Conn is a bidirectional, ordered message stream between two nodes.
type Conn interface {
	// Send writes one message. A non-empty m.Frame goes raw after the
	// envelope, exactly as SendFrame would write it; m is never mutated,
	// so the broker can share one envelope across subscribers.
	Send(m *Msg) error
	// SendFrame writes m with segs as its frame payload, scatter-gather
	// style: the envelope announces the length (FrameLen) and the segments
	// follow raw (writev), so slab bytes reach the socket without an
	// intermediate contiguous copy. It must not mutate m and must not
	// retain segs past the call.
	SendFrame(m *Msg, segs net.Buffers) error
	// Recv returns the next message with its frame bytes in Frame.
	Recv() (*Msg, error)
	// SetIdleTimeout bounds every later Recv and Send: with d > 0 an
	// operation that sees no progress for d fails with an error containing
	// "idle timeout" instead of blocking forever. This is the failure-
	// detection primitive: a half-open TCP connection (peer machine gone,
	// no RST ever arrives) otherwise wedges a blocking read indefinitely.
	// Zero clears the bound.
	SetIdleTimeout(d time.Duration)
	// Stats returns the connection's cumulative traffic counters.
	Stats() ConnStats
	Close() error
}

// FrameConn, IdleTimeoutConn and StatsReporter are aliases of Conn, which
// has every one of those methods; the benchmark harness still names them.
type (
	FrameConn       = Conn
	IdleTimeoutConn = Conn
	StatsReporter   = Conn
)

// SetConnIdleTimeout is c.SetIdleTimeout(d), kept for the benchmark harness.
func SetConnIdleTimeout(c Conn, d time.Duration) { c.SetIdleTimeout(d) }

// ConnStats holds cumulative transport counters for one connection end.
// Byte counts cover the encoded wire form: envelopes plus raw frame bytes.
type ConnStats struct {
	SentMsgs  int64
	RecvMsgs  int64
	SentBytes int64
	RecvBytes int64
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

// Pipe returns the two ends of one loopback TCP connection, for running a
// master and its workers in one process over the deployed codec.
func Pipe() (Conn, Conn, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("dist: pipe: %w", err)
	}
	defer l.Close()
	// The kernel completes the handshake from the listen backlog, so the
	// dial returns before Accept runs.
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, fmt.Errorf("dist: pipe: %w", err)
	}
	b, err := l.Accept()
	if err != nil {
		a.Close()
		return nil, nil, fmt.Errorf("dist: pipe: %w", err)
	}
	return newTCPConn(a), newTCPConn(b), nil
}

// ---- TCP stream codec ----

type tcpConn struct {
	nc  net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	// br feeds the decoder and the raw frame reads after envelopes that
	// announce a FrameLen. gob uses it as an io.ByteReader and so never
	// reads ahead past a message boundary, leaving the raw frame bytes for
	// Recv.
	br   *bufio.Reader
	mu   sync.Mutex
	idle atomic.Int64 // idle timeout in nanoseconds; 0 = none
	connStats
}

// SetIdleTimeout makes every subsequent Recv arm a read deadline and every
// Send a write deadline, so a half-open peer surfaces as an error instead of
// a forever-blocked syscall. Zero clears any armed deadline.
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

// Send writes m; a non-empty m.Frame travels raw after the envelope (see
// SendFrame), so frame bytes never pass through gob.
func (c *tcpConn) Send(m *Msg) error {
	if len(m.Frame) == 0 {
		return c.write(m, nil)
	}
	return c.SendFrame(m, net.Buffers{m.Frame})
}

// SendFrame encodes a copy of the envelope with Frame nil and FrameLen
// announcing the payload, then hands the segments to the socket raw via
// net.Buffers (writev on platforms that support it) — no contiguous copy of
// the frame is ever built on the send side.
func (c *tcpConn) SendFrame(m *Msg, segs net.Buffers) error {
	env := *m // the caller may share m across subscribers; never mutate it
	env.Frame = nil
	env.FrameLen = 0
	for _, s := range segs {
		env.FrameLen += len(s)
	}
	return c.write(&env, segs)
}

// write sends one envelope and its env.FrameLen raw frame bytes from segs.
func (c *tcpConn) write(env *Msg, segs net.Buffers) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.idle.Load(); d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	if err := c.enc.Encode(env); err != nil {
		return c.idleErr("send", err)
	}
	if env.FrameLen > 0 {
		n, err := segs.WriteTo(c.nc)
		c.sentBytes.Add(n)
		if err != nil {
			return c.idleErr("send", err)
		}
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
// RunMaster expects to read itself. Everything but Recv is the underlying
// connection's own method, so wrapping costs the connection nothing.
type pushbackConn struct {
	Conn
	mu    sync.Mutex
	first *Msg
}

// NewPushbackConn wraps c so its next Recv returns first.
func NewPushbackConn(c Conn, first *Msg) Conn {
	return &pushbackConn{Conn: c, first: first}
}

func (c *pushbackConn) Recv() (*Msg, error) {
	c.mu.Lock()
	if m := c.first; m != nil {
		c.first = nil
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	return c.Conn.Recv()
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
