package dist

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// WorkerConfig configures one execution node.
type WorkerConfig struct {
	// NodeID identifies the node in the topology and reports.
	NodeID string
	// Cores is the worker-thread count reported to the master and used
	// locally.
	Cores int
	// Speed is the relative speed factor reported to the master (0 means
	// 1.0).
	Speed float64
	// Prog is the program; it must be structurally identical to the
	// master's. When nil, Factory builds it from the assignment's Spec.
	Prog *core.Program
	// Factory builds the program from the spec carried in the assignment
	// message (used by cmd/p2g-worker, where programs come from a
	// registry).
	Factory func(spec string) (*core.Program, error)
	// BoundsFactory derives per-kernel age bounds from the spec; used with
	// Factory when KernelMaxAge is nil.
	BoundsFactory func(spec string) map[string]int
	// Output receives kernel Printf output.
	Output io.Writer
	// MaxAge and Granularity mirror the runtime options.
	MaxAge       int
	KernelMaxAge map[string]int
	Granularity  map[string]int

	// Standby registers this worker as a hot spare: it sends MJoin instead
	// of MRegister, receives no initial partition, and waits (answering
	// clock probes) until the master either promotes it after a peer's
	// death (MAssign/MStart, with the lost state replayed) or releases it
	// with MStopReq — in which case RunWorker returns (nil, nil).
	Standby bool
	// IdleTimeout, when positive, bounds every blocking transport operation
	// on the master connection once the run has started, so a silently dead
	// master surfaces as an error instead of wedging the worker forever.
	// Not armed during the handshake — registration and (for standbys) the
	// wait for promotion are legitimately unbounded.
	IdleTimeout time.Duration

	// Metrics receives the node's full instrumentation and is snapshotted
	// into every status heartbeat; when nil a private registry is created
	// so the master's cluster view still sees live per-kernel stats.
	Metrics *obs.Registry
	// Tracer records kernel-instance lifecycle spans on this node.
	Tracer *obs.Tracer
}

// traceChunk is the most spans one MTrace carries. A chunk encodes in a
// small fraction of any liveness window, whereas a full ring (64K spans) in
// one message can keep a healthy worker silent long enough to be declared
// dead.
const traceChunk = 256

// handshakeErr formats the failure of a blocking handshake receive: a
// transport error, an MError carrying the master's reason, or an unexpected
// message kind.
func handshakeErr(phase string, m *Msg, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("dist: waiting for %s: %w", phase, err)
	case m.Kind == MError:
		return fmt.Errorf("dist: waiting for %s: master reported error: %s", phase, m.Err)
	default:
		return fmt.Errorf("dist: waiting for %s: unexpected %v", phase, m.Kind)
	}
}

// RunWorker executes one node of a distributed run over an established
// connection to the master. It returns the local instrumentation report.
// A standby worker that was never promoted returns (nil, nil).
func RunWorker(cfg WorkerConfig, conn Conn) (*runtime.Report, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}
	regKind := MRegister
	if cfg.Standby {
		regKind = MJoin
	}
	if err := conn.Send(&Msg{Kind: regKind, NodeID: cfg.NodeID, Cores: cfg.Cores, Speed: speed}); err != nil {
		return nil, err
	}

	// An observed master interleaves clock probes between registration and
	// assignment; answer them with this node's clock until the assignment
	// arrives (unobserved masters send none). A standby sits in this loop
	// for as long as the cluster stays healthy.
	var assign *Msg
	for {
		m, err := conn.Recv()
		if err != nil {
			return nil, handshakeErr("assignment", m, err)
		}
		if m.Kind == MClockProbe {
			if err := conn.Send(&Msg{Kind: MClockEcho, SentNs: m.SentNs, NodeNs: time.Now().UnixNano()}); err != nil {
				return nil, fmt.Errorf("dist: answering clock probe: %w", err)
			}
			continue
		}
		if m.Kind == MStopReq {
			// Released before ever being assigned work: the run finished (or
			// failed) without needing this standby.
			return nil, nil
		}
		assign = m
		break
	}
	if assign.Kind != MAssign {
		return nil, handshakeErr("assignment", assign, nil)
	}
	if assign.TraceOn && cfg.Tracer == nil {
		// The master will pull span buffers at shutdown; give it something
		// to pull even when this worker wasn't started with -trace.
		cfg.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	prog := cfg.Prog
	if prog == nil {
		if cfg.Factory == nil {
			return nil, fmt.Errorf("dist: worker has neither a program nor a factory")
		}
		built, err := cfg.Factory(assign.Spec)
		if err != nil {
			return nil, fmt.Errorf("dist: building program %q: %w", assign.Spec, err)
		}
		prog = built
	}
	if cfg.KernelMaxAge == nil && cfg.BoundsFactory != nil {
		cfg.KernelMaxAge = cfg.BoundsFactory(assign.Spec)
	}

	var sent, received atomic.Int64
	sendErr := make(chan error, 1)
	send := func(m *Msg) {
		// Every message through here is freshly allocated, so stamping is
		// race-free; the master turns the stamp into a flight measurement.
		m.SentNs = time.Now().UnixNano()
		if err := conn.Send(m); err != nil {
			select {
			case sendErr <- err:
			default:
			}
		}
	}
	// sendFrame sends a batched store frame scatter-gather (slab bytes go
	// straight to the socket), then recycles the frame.
	sendFrame := func(m *Msg, f *runtime.StoreFrame) {
		m.SentNs = time.Now().UnixNano()
		err := conn.SendFrame(m, f.Segments())
		runtime.PutStoreFrame(f)
		if err != nil {
			select {
			case sendErr <- err:
			default:
			}
		}
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// updateTransport folds the connection's traffic counters into the
	// registry (as gauges: each sample replaces the last) right before a
	// snapshot or report, so heartbeats carry current transport totals.
	updateTransport := func() ConnStats {
		st := conn.Stats()
		reg.Gauge(obs.MTransportSentMsgs).Set(st.SentMsgs)
		reg.Gauge(obs.MTransportRecvMsgs).Set(st.RecvMsgs)
		reg.Gauge(obs.MTransportSentBytes).Set(st.SentBytes)
		reg.Gauge(obs.MTransportRecvBytes).Set(st.RecvBytes)
		return st
	}

	// Flight accounting: master-stamped pings measured against this node's
	// clock, corrected by the handshake's offset estimate. The baseline
	// projects only this run's flight time into the report (the registry
	// may be shared across runs).
	hFlight := reg.Histogram(obs.MStageFlightNs)
	flightBase := hFlight.SumNs()

	// The node (and its batcher) is rebuilt from scratch whenever the
	// master reassigns kernels after a peer's death, so construction lives
	// in a closure. rep/runErr are written by the run goroutine strictly
	// before close(runDone) and read only after it, so rebuilds are
	// race-free.
	var (
		node    *runtime.Node
		batcher *storeBatcher
		runDone chan struct{}
		rep     *runtime.Report
		runErr  error
	)
	buildNode := func(kernels []string, failover bool) error {
		local := map[string]bool{}
		for _, k := range kernels {
			local[k] = true
		}
		remote := map[string]bool{}
		for _, k := range prog.Kernels {
			if !local[k.Name] {
				remote[k.Name] = true
			}
		}
		// The store batcher coalesces per-row notices into whole-generation
		// MStoreFrame messages; it is flushed before every MDone (keeping
		// the per-origin stores-before-done order) and on every ping
		// (bounding how long an incomplete generation can sit unsent). With
		// a tracer it also stamps each frame with a causal trace id and
		// records the emit span.
		batcher = newStoreBatcher(sendFrame, reg, cfg.NodeID, cfg.Tracer)
		b := batcher
		n, err := runtime.NewNode(prog, runtime.Options{
			Workers:       cfg.Cores,
			MaxAge:        cfg.MaxAge,
			KernelMaxAge:  cfg.KernelMaxAge,
			Granularity:   cfg.Granularity,
			Output:        cfg.Output,
			RemoteKernels: remote,
			NoAutoQuiesce: true,
			Metrics:       reg,
			Tracer:        cfg.Tracer,
			MergeStores:   failover,
			OnStore: func(sn runtime.StoreNotice) {
				sent.Add(1)
				if err := b.add(sn); err != nil {
					send(&Msg{Kind: MError, Err: err.Error()})
					select {
					case sendErr <- err:
					default:
					}
				}
			},
			OnKernelDone: func(kernel string, age int) {
				sent.Add(1)
				b.flushAll()
				send(&Msg{Kind: MDone, Kernel: kernel, Age: age})
			},
		})
		if err != nil {
			return err
		}
		node = n
		return nil
	}
	startRun := func() {
		done := make(chan struct{})
		runDone = done
		n := node
		go func() {
			r, err := n.Run()
			rep, runErr = r, err
			close(done)
			// A failed run can end before the master requests a stop; report
			// it proactively so the cluster shuts down instead of waiting for
			// a quiescence that can never be detected.
			if err != nil {
				send(&Msg{Kind: MError, Err: err.Error()})
			}
		}()
	}

	if err := buildNode(assign.Kernels, assign.Failover); err != nil {
		send(&Msg{Kind: MError, Err: err.Error()})
		return nil, err
	}

	start, err := conn.Recv()
	if err != nil || start.Kind != MStart {
		node.Release()
		return nil, handshakeErr("start", start, err)
	}
	// Clock-sync result: offset is this node's clock minus the master's, so
	// master-equivalent local time is local − offset.
	clockOffset, synced := start.OffsetNs, start.Synced
	if cfg.IdleTimeout > 0 {
		conn.SetIdleTimeout(cfg.IdleTimeout)
	}

	startRun()
	// teardown stops the local run and returns its field generations to the
	// slab pools; every exit path below goes through it (a long-lived worker
	// process runs many programs over one process lifetime).
	teardown := func() {
		node.Stop()
		<-runDone
		node.Release()
	}

	// Receive on a separate goroutine so the main loop can select a failed
	// send (a dead master) without waiting for the master to speak next.
	// Closing the connection on return unblocks the receiver; the stop
	// channel reaps it if it is blocked handing over a message.
	type recvMsg struct {
		m   *Msg
		err error
	}
	recvCh := make(chan recvMsg)
	recvStop := make(chan struct{})
	defer close(recvStop)
	defer conn.Close()
	go func() {
		for {
			m, err := conn.Recv()
			select {
			case recvCh <- recvMsg{m: m, err: err}:
			case <-recvStop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// stopAndReport runs the orderly shutdown the master requested: stop the
	// node, surface a failed run, fold transport totals into the report and
	// ship it. Reached from MStopReq and from a send failure that raced one.
	stopAndReport := func() (*runtime.Report, error) {
		node.Stop()
		<-runDone
		if runErr != nil {
			send(&Msg{Kind: MError, Err: runErr.Error()})
			node.Release()
			return rep, runErr
		}
		if st := updateTransport(); rep != nil {
			rep.SentMsgs = st.SentMsgs
			rep.RecvMsgs = st.RecvMsgs
			rep.SentBytes = st.SentBytes
			rep.RecvBytes = st.RecvBytes
			if rep.Stages != nil {
				rep.Stages.FlightNs = hFlight.SumNs() - flightBase
			}
		}
		send(&Msg{Kind: MReport, Report: rep})
		// Release only after the report is out: a long-lived worker
		// (cmd/p2g-worker) reuses the slab pools for its next program.
		node.Release()
		return rep, nil
	}

	for {
		var in recvMsg
		// Prefer inbound traffic over a pending send failure: when the
		// master stops and closes in one breath, a status send can fail
		// just before the already-queued MStopReq is read, and the stop
		// (clean teardown through the normal path) must win over reporting
		// that race as an error. A genuinely dead master still surfaces —
		// nothing more arrives, so the send failure is selected next.
		select {
		case in = <-recvCh:
		default:
			select {
			case err := <-sendErr:
				// The failure may have raced a stop the master issued just
				// before the link broke (stop, then close — with this send
				// already failing). Drain what the connection still delivers
				// for a bounded moment: an in-flight MStopReq means this is
				// an orderly shutdown, not a dead link.
				grace := time.NewTimer(250 * time.Millisecond)
				for {
					select {
					case gin := <-recvCh:
						if gin.err == nil && gin.m.Kind == MStopReq {
							grace.Stop()
							return stopAndReport()
						}
						if gin.err != nil {
							grace.Stop()
							teardown()
							return rep, fmt.Errorf("dist: sending to master: %w", err)
						}
						// Data racing the failure is moot — the run ends
						// either way; keep draining within the window.
					case <-grace.C:
						teardown()
						return rep, fmt.Errorf("dist: sending to master: %w", err)
					}
				}
			case in = <-recvCh:
			}
		}
		if in.err != nil {
			teardown()
			return rep, fmt.Errorf("dist: master connection: %w", in.err)
		}
		m := in.m
		switch m.Kind {
		case MStoreFrame:
			received.Add(1)
			injectFrom := cfg.Tracer.Now()
			if err := node.InjectStoreFrame(m.Frame); err != nil {
				send(&Msg{Kind: MError, Err: err.Error()})
				teardown()
				return rep, err
			}
			if tr := cfg.Tracer; tr != nil {
				// Terminal hop of the frame's causal trace: the remote
				// generation lands in this node's field replica.
				tr.Record(obs.Span{
					Name: "inject " + m.Field, Cat: "dist", Ph: obs.PhaseComplete,
					TS: injectFrom, Dur: tr.Now() - injectFrom,
					Age: m.Age, Trace: m.Trace, Flow: obs.FlowFinish,
				})
			}
		case MDone:
			received.Add(1)
			if err := node.InjectRemoteDone(m.Kernel, m.Age); err != nil {
				send(&Msg{Kind: MError, Err: err.Error()})
				teardown()
				return rep, err
			}
		case MReassign:
			// A peer died and the master handed this worker a replacement
			// partition. Tear the node down and rebuild from scratch: the
			// replayed generations that follow this message (the connection
			// is FIFO) restore the remote field state, and the local kernels
			// re-execute from age zero — their stores merge idempotently
			// into peers that already hold them. Counters restart at zero to
			// match the master's reset accounting.
			node.Stop()
			<-runDone
			node.Release()
			if runErr != nil {
				return rep, runErr
			}
			// Re-execution only reproduces the lost stores if the kernels
			// restart from their initial state. A factory-built program is
			// rebuilt wholesale, so stateful kernel closures — a video
			// source mid-stream, most importantly — start over instead of
			// resuming where the torn-down node left them. A directly
			// injected Prog is reused as-is and must be restartable.
			if cfg.Factory != nil && m.Spec != "" {
				built, err := cfg.Factory(m.Spec)
				if err != nil {
					err = fmt.Errorf("dist: rebuilding program %q: %w", m.Spec, err)
					send(&Msg{Kind: MError, Err: err.Error()})
					return rep, err
				}
				prog = built
			}
			sent.Store(0)
			received.Store(0)
			if err := buildNode(m.Kernels, m.Failover); err != nil {
				send(&Msg{Kind: MError, Err: err.Error()})
				return rep, err
			}
			startRun()
		case MPing:
			if synced && m.SentNs != 0 {
				// Master→worker flight: the ping's master-clock stamp
				// against local time rebased to the master clock. Clamped
				// at zero (the offset estimate has RTT/2 error).
				flight := (time.Now().UnixNano() - clockOffset) - m.SentNs
				if flight < 0 {
					flight = 0
				}
				hFlight.Observe(time.Duration(flight))
			}
			batcher.flushAll()
			updateTransport()
			send(&Msg{Kind: MStatus, Idle: node.Idle(), Sent: sent.Load(), Received: received.Load(), Metrics: reg.Snapshot()})
		case MTraceReq:
			// Ship the span buffer in chunks, oldest first, each with the
			// alignment anchor: the master hears from this node after every
			// chunk, so no single encode of a full ring outlasts its
			// liveness window. The last chunk is the first short one; an
			// untraced node sends just that (empty), so the master's
			// collection logic needs no special case.
			var seq uint64
			for {
				spans, next := cfg.Tracer.SpansFrom(seq, traceChunk)
				send(&Msg{
					Kind:         MTrace,
					Spans:        spans,
					TraceStartNs: cfg.Tracer.StartUnixNs(),
					TraceDropped: cfg.Tracer.Dropped(),
				})
				if len(spans) < traceChunk {
					break
				}
				seq = next
			}
		case MStopReq:
			return stopAndReport()
		default:
			teardown()
			return rep, fmt.Errorf("dist: unexpected %v from master", m.Kind)
		}
	}
}
