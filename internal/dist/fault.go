package dist

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection for the failover and liveness tests: FaultConn wraps a Conn
// and misbehaves on schedule — severing, wedging, dropping or delaying at the
// Nth message — so tests can kill a worker mid-run or simulate a half-open
// connection deterministically. Counters are atomic and the delay jitter is
// seeded, so runs are reproducible under -race.

// FaultPlan schedules the misbehavior of one FaultConn. Message counts are
// 1-based and independent per direction; zero disables that fault.
type FaultPlan struct {
	// SeverSendAt closes the underlying connection instead of performing the
	// Nth send — the abrupt process-death case: the peer sees EOF/RST.
	SeverSendAt int64
	// SeverRecvAt closes the underlying connection instead of performing the
	// Nth receive.
	SeverRecvAt int64
	// WedgeSendAt blocks the Nth and later sends until the conn is closed —
	// the half-open case seen from a sender.
	WedgeSendAt int64
	// WedgeRecvAt blocks the Nth and later receives until the conn is
	// closed — the half-open case: the peer is gone but no RST ever arrives,
	// so nothing is ever delivered and nothing errors.
	WedgeRecvAt int64
	// DropSendFrom silently discards the Nth and later sends (they report
	// success). The peer keeps its half of the connection open but hears
	// nothing more — the silent-partition case liveness must catch.
	DropSendFrom int64
	// Delay sleeps up to this duration (seeded-random jitter) before every
	// DelayEvery-th message in either direction.
	Delay      time.Duration
	DelayEvery int64
	// Seed feeds the jitter source; the zero seed is replaced with 1.
	Seed int64
}

// FaultConn wraps a Conn with scheduled faults. SendFrame counts as one send
// against the plan; SetIdleTimeout and Stats go to the underlying Conn.
type FaultConn struct {
	under Conn
	plan  FaultPlan

	sends atomic.Int64
	recvs atomic.Int64

	mu     sync.Mutex
	rng    *rand.Rand
	closed chan struct{}
	once   sync.Once
}

// NewFaultConn wraps c with the given fault plan.
func NewFaultConn(c Conn, plan FaultPlan) *FaultConn {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultConn{
		under:  c,
		plan:   plan,
		rng:    rand.New(rand.NewSource(seed)),
		closed: make(chan struct{}),
	}
}

// Sends returns how many send operations have been attempted.
func (c *FaultConn) Sends() int64 { return c.sends.Load() }

// Recvs returns how many receive operations have been attempted.
func (c *FaultConn) Recvs() int64 { return c.recvs.Load() }

func (c *FaultConn) maybeDelay(n int64) {
	if c.plan.Delay <= 0 || c.plan.DelayEvery <= 0 || n%c.plan.DelayEvery != 0 {
		return
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.plan.Delay) + 1))
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// wedge blocks until the conn is closed, then reports the closure.
func (c *FaultConn) wedge(op string) error {
	<-c.closed
	return fmt.Errorf("dist: fault-injected wedge on %s released by close", op)
}

func (c *FaultConn) checkSend() (drop bool, err error) {
	n := c.sends.Add(1)
	if c.plan.SeverSendAt > 0 && n >= c.plan.SeverSendAt {
		c.Close()
		return false, fmt.Errorf("dist: fault-injected sever at send %d", n)
	}
	if c.plan.WedgeSendAt > 0 && n >= c.plan.WedgeSendAt {
		return false, c.wedge("send")
	}
	c.maybeDelay(n)
	if c.plan.DropSendFrom > 0 && n >= c.plan.DropSendFrom {
		return true, nil
	}
	return false, nil
}

func (c *FaultConn) Send(m *Msg) error {
	drop, err := c.checkSend()
	if err != nil {
		return err
	}
	if drop {
		return nil
	}
	return c.under.Send(m)
}

// SendFrame applies the send schedule to a scatter-gather send.
func (c *FaultConn) SendFrame(m *Msg, segs net.Buffers) error {
	drop, err := c.checkSend()
	if err != nil {
		return err
	}
	if drop {
		return nil
	}
	return c.under.SendFrame(m, segs)
}

func (c *FaultConn) Recv() (*Msg, error) {
	n := c.recvs.Add(1)
	if c.plan.SeverRecvAt > 0 && n >= c.plan.SeverRecvAt {
		c.Close()
		return nil, fmt.Errorf("dist: fault-injected sever at recv %d", n)
	}
	if c.plan.WedgeRecvAt > 0 && n >= c.plan.WedgeRecvAt {
		return nil, c.wedge("recv")
	}
	c.maybeDelay(n)
	return c.under.Recv()
}

func (c *FaultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.under.Close()
}

func (c *FaultConn) SetIdleTimeout(d time.Duration) { c.under.SetIdleTimeout(d) }

func (c *FaultConn) Stats() ConnStats { return c.under.Stats() }
