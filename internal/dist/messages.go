package dist

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// MsgKind enumerates protocol messages.
type MsgKind uint8

// Protocol message kinds, in rough lifecycle order.
const (
	MRegister    MsgKind = iota // worker → master: here I am, this is my capacity
	MAssign                     // master → worker: your kernel partition
	MStart                      // master → worker: begin execution
	MStore                      // retired per-store message; kept so later kinds keep their wire values
	MDone                       // worker ↔ master: a kernel-age completed
	MPing                       // master → worker: report status
	MStatus                     // worker → master: idle state and event counters
	MStopReq                    // master → worker: quiesce reached, shut down
	MReport                     // worker → master: final instrumentation report
	MSnapshotReq                // retired snapshot request; kept so later kinds keep their wire values
	MSnapshot                   // retired snapshot reply; kept so later kinds keep their wire values
	MError                      // either direction: fatal error
	MStoreFrame                 // worker ↔ master: a batched store-notice frame (forwarded raw)
	MClockProbe                 // master → worker: clock-offset probe (handshake, Cristian-style)
	MClockEcho                  // worker → master: probe echo with the worker's clock reading
	MTraceReq                   // master → worker: send your span buffer (shutdown)
	MTrace                      // worker → master: span buffer + trace alignment data
	MJoin                       // standby worker → master: available for takeover, not initial partition
	MReassign                   // master → worker: replacement kernel partition after a peer died
)

// String returns the lifecycle name of the message kind, for handshake and
// protocol error messages.
func (k MsgKind) String() string {
	switch k {
	case MRegister:
		return "MRegister"
	case MAssign:
		return "MAssign"
	case MStart:
		return "MStart"
	case MStore:
		return "MStore"
	case MDone:
		return "MDone"
	case MPing:
		return "MPing"
	case MStatus:
		return "MStatus"
	case MStopReq:
		return "MStopReq"
	case MReport:
		return "MReport"
	case MSnapshotReq:
		return "MSnapshotReq"
	case MSnapshot:
		return "MSnapshot"
	case MError:
		return "MError"
	case MStoreFrame:
		return "MStoreFrame"
	case MClockProbe:
		return "MClockProbe"
	case MClockEcho:
		return "MClockEcho"
	case MTraceReq:
		return "MTraceReq"
	case MTrace:
		return "MTrace"
	case MJoin:
		return "MJoin"
	case MReassign:
		return "MReassign"
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// Msg is the single wire envelope; Kind selects which fields are meaningful.
// A flat struct keeps gob encoding simple and self-describing.
type Msg struct {
	Kind MsgKind

	// MRegister
	NodeID string
	Cores  int
	Speed  float64

	// MAssign / MReassign
	Kernels []string // kernel names the worker executes
	Spec    string   // program spec for workers that build the program from a registry
	// Failover tells the worker the master is running with failover enabled:
	// the worker builds its node with merge-tolerant stores so replayed
	// generations and re-executed kernels are idempotent (see
	// runtime.Options.MergeStores).
	Failover bool

	// MStoreFrame: a whole-generation batch of store notices encoded by
	// runtime.StoreFrame. Field and Age mirror the frame header so the
	// master broker routes by subscription without decoding the payload;
	// Trace mirrors the frame's causal trace id (0 when tracing is off).
	Field string
	Frame []byte
	Trace uint64
	// FrameLen carries the frame payload out-of-band: the stream codec
	// always encodes the envelope with Frame nil and FrameLen set, then
	// writes the raw frame bytes directly after it, so frame bytes never
	// pass through gob. Recv materializes the bytes back into Frame and
	// zeroes FrameLen, so receivers never observe the split form. Gob
	// omits zero fields, so envelopes without a frame carry no FrameLen.
	FrameLen int

	// SentNs is the sender's wall clock (UnixNano) when the message was
	// handed to the transport. Stamped only on freshly allocated messages —
	// the broker forwards messages by pointer, so forwarded envelopes keep
	// the original stamp. The master interprets it on every worker message
	// (workers allocate all their sends); workers interpret it only on
	// MPing, the one inbound kind the master always allocates itself.
	SentNs int64

	// MClockEcho: the worker's clock (UnixNano) at echo time; SentNs echoes
	// the probe's stamp so the master matches probe to reply.
	NodeNs int64

	// MStart: the worker's estimated clock offset (worker clock minus
	// master clock, nanoseconds) measured during the handshake; Synced
	// reports whether an estimate was made at all.
	OffsetNs int64
	Synced   bool

	// MAssign: the master will pull span buffers at shutdown
	// (CollectTraces), so a worker without its own tracer should create
	// one — cluster tracing needs only the master's -trace flag.
	TraceOn bool

	// MTrace: the worker's span buffer with its alignment data (see
	// obs.NodeTrace).
	Spans        []obs.Span
	TraceStartNs int64
	TraceDropped int64

	// MDone
	Kernel string
	Age    int

	// MStatus
	Idle     bool
	Sent     int64
	Received int64
	// Metrics is the worker's registry snapshot, carried on every
	// heartbeat so the master's /statusz shows live per-kernel stats.
	Metrics *obs.MetricsSnapshot

	// MReport
	Report *runtime.Report

	// MError
	Err string
}
