package dist

import (
	"bytes"
	"fmt"
	"net"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/runtime"
)

// pipe returns a Pipe pair (master end, worker end), closed at test end.
func pipe(t testing.TB) (Conn, Conn) {
	t.Helper()
	a, b, err := Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// tcpPair returns a connected TCP loopback pair (client, server) made with
// ListenTCP, DialTCP and Accept.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed := make(chan Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := DialTCP(l.Addr())
		if err != nil {
			errs <- err
			return
		}
		dialed <- c
	}()
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var cli Conn
	select {
	case cli = <-dialed:
	case err := <-errs:
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// TestConnContract holds every Conn the package builds to the same contract:
// ordered round trips, SendFrame and Send-with-Frame writing identical
// bytes, a close on either end failing the peer, idle timeouts, and byte
// counting.
func TestConnContract(t *testing.T) {
	wrap := func(w func(Conn) Conn) func(*testing.T) (Conn, Conn) {
		return func(t *testing.T) (Conn, Conn) {
			a, b := pipe(t)
			return w(a), w(b)
		}
	}
	cases := []struct {
		name string
		pair func(*testing.T) (Conn, Conn)
	}{
		{"Pipe", func(t *testing.T) (Conn, Conn) { return pipe(t) }},
		{"DialTCP-Accept", tcpPair},
		{"FaultConn", wrap(func(c Conn) Conn { return NewFaultConn(c, FaultPlan{}) })},
		{"PushbackConn", wrap(func(c Conn) Conn { return NewPushbackConn(c, nil) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("round-trip", func(t *testing.T) {
				a, b := tc.pair(t)
				for i, ends := range [][2]Conn{{a, b}, {b, a}} {
					if err := ends[0].Send(&Msg{Kind: MDone, Kernel: "k", Age: i}); err != nil {
						t.Fatal(err)
					}
					m, err := ends[1].Recv()
					if err != nil || m.Kind != MDone || m.Kernel != "k" || m.Age != i {
						t.Fatalf("direction %d: got %+v, %v", i, m, err)
					}
				}
			})
			t.Run("frame-bytes", func(t *testing.T) {
				a, b := tc.pair(t)
				f := scatterFrame(t)
				defer runtime.PutStoreFrame(f)
				flat := f.AppendTo(nil)
				// The first message carries gob's type definitions; after
				// it, equal wire sizes mean Send wrote the frame raw too.
				if err := a.Send(&Msg{Kind: MPing}); err != nil {
					t.Fatal(err)
				}
				wire := a.Stats().SentBytes
				if err := a.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels", Age: 3}, f.Segments()); err != nil {
					t.Fatal(err)
				}
				viaFrame := a.Stats().SentBytes - wire
				shared := &Msg{Kind: MStoreFrame, Field: "pixels", Age: 3, Frame: flat}
				if err := a.Send(shared); err != nil {
					t.Fatal(err)
				}
				if viaSend := a.Stats().SentBytes - wire - viaFrame; viaSend != viaFrame {
					t.Errorf("Send wrote %d wire bytes, SendFrame %d", viaSend, viaFrame)
				}
				if !bytes.Equal(shared.Frame, flat) || shared.FrameLen != 0 {
					t.Fatal("Send mutated the shared envelope")
				}
				if m, err := b.Recv(); err != nil || m.Kind != MPing {
					t.Fatalf("warm-up message: %+v, %v", m, err)
				}
				for _, via := range []string{"SendFrame", "Send"} {
					m, err := b.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if m.Field != "pixels" || m.Age != 3 || m.FrameLen != 0 || !bytes.Equal(m.Frame, flat) {
						t.Fatalf("%s delivered field %q age %d, %d frame bytes (FrameLen %d), want %d bytes",
							via, m.Field, m.Age, len(m.Frame), m.FrameLen, len(flat))
					}
				}
			})
			for _, closer := range []int{0, 1} {
				t.Run(fmt.Sprintf("close-end-%d", closer), func(t *testing.T) {
					a, b := tc.pair(t)
					ends := [2]Conn{a, b}
					ends[closer].Close()
					if _, err := ends[1-closer].Recv(); err == nil {
						t.Error("Recv succeeded after the peer closed")
					}
					if err := ends[closer].Send(&Msg{Kind: MPing}); err == nil {
						t.Error("Send succeeded on a closed end")
					}
				})
			}
			t.Run("idle-timeout", func(t *testing.T) {
				_, b := tc.pair(t)
				b.SetIdleTimeout(20 * time.Millisecond)
				if _, err := b.Recv(); err == nil || !strings.Contains(err.Error(), "idle timeout") {
					t.Fatalf("Recv on a silent peer = %v, want an idle timeout", err)
				}
			})
			t.Run("stats", func(t *testing.T) {
				a, b := tc.pair(t)
				if err := a.Send(&Msg{Kind: MRegister, NodeID: "n0"}); err != nil {
					t.Fatal(err)
				}
				if err := a.SendFrame(&Msg{Kind: MStoreFrame}, net.Buffers{make([]byte, 1000)}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if _, err := b.Recv(); err != nil {
						t.Fatal(err)
					}
				}
				sent, recv := a.Stats(), b.Stats()
				if sent.SentMsgs != 2 || recv.RecvMsgs != 2 {
					t.Errorf("messages: sent %d, received %d, want 2 each", sent.SentMsgs, recv.RecvMsgs)
				}
				if sent.SentBytes <= 1000 || recv.RecvBytes != sent.SentBytes {
					t.Errorf("bytes: sent %d, received %d, want equal and over the 1000-byte frame", sent.SentBytes, recv.RecvBytes)
				}
			})
		})
	}
}

// scatterFrame builds a store frame whose payload is large enough to be
// recorded as raw segments rather than copied into the header buffer.
func scatterFrame(t *testing.T) *runtime.StoreFrame {
	t.Helper()
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	f := runtime.GetStoreFrame()
	f.Reset("pixels", 3)
	if err := f.Add(runtime.StoreNotice{
		Field: "pixels", Age: 3, Whole: true,
		Value: field.ArrayVal(field.ArrayFromFloat64(vals)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(runtime.StoreNotice{
		Field: "pixels", Age: 3, Elem: []int{7},
		Value: field.Float64Val(1.5),
	}); err != nil {
		t.Fatal(err)
	}
	if len(f.Segments()) < 2 { // header buf + ≥1 raw slab segment
		t.Fatalf("payload not recorded scatter-gather: %d segments", len(f.Segments()))
	}
	return f
}

// TestTCPSendFrameRoundTrip: a scatter-gather SendFrame must arrive as a
// regular MStoreFrame message — Frame materialized bit-identically to the
// flattened encoding, FrameLen zeroed, envelope fields intact, and the
// sender's shared *Msg unmutated.
func TestTCPSendFrameRoundTrip(t *testing.T) {
	cli, srv := tcpPair(t)
	f := scatterFrame(t)
	want := f.AppendTo(nil)
	m := &Msg{Kind: MStoreFrame, Field: "pixels", Age: 3, Trace: 0xBEEF}
	if err := cli.SendFrame(m, f.Segments()); err != nil {
		t.Fatal(err)
	}
	if m.Frame != nil || m.FrameLen != 0 {
		t.Fatalf("SendFrame mutated the shared envelope: Frame=%d bytes FrameLen=%d",
			len(m.Frame), m.FrameLen)
	}

	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MStoreFrame || got.Field != "pixels" || got.Age != 3 || got.Trace != 0xBEEF {
		t.Fatalf("envelope corrupted: %+v", got)
	}
	if got.FrameLen != 0 {
		t.Fatalf("receiver exposed split form: FrameLen=%d", got.FrameLen)
	}
	if !bytes.Equal(got.Frame, want) {
		t.Fatalf("raw frame differs: got %d bytes, want %d", len(got.Frame), len(want))
	}
	var notices []runtime.StoreNotice
	if err := runtime.DecodeStoreFrame(got.Frame, func(sn runtime.StoreNotice) error {
		notices = append(notices, sn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(notices) != 2 || notices[0].Field != "pixels" || notices[0].Age != 3 || !notices[0].Whole {
		t.Fatalf("decoded frame wrong: %+v", notices)
	}
	runtime.PutStoreFrame(f)
}

// TestTCPSendFrameInterleaved proves the raw-bytes framing leaves the gob
// stream aligned: plain Sends before, between, and after SendFrames must all
// arrive intact and in order.
func TestTCPSendFrameInterleaved(t *testing.T) {
	cli, srv := tcpPair(t)

	f := scatterFrame(t)
	want := f.AppendTo(nil)
	defer runtime.PutStoreFrame(f)

	if err := cli.Send(&Msg{Kind: MRegister, NodeID: "n0"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels", Age: i}, f.Segments()); err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(&Msg{Kind: MDone, Field: "pixels", Age: i}); err != nil {
			t.Fatal(err)
		}
	}

	if m, err := srv.Recv(); err != nil || m.Kind != MRegister || m.NodeID != "n0" {
		t.Fatalf("first message: %+v, %v", m, err)
	}
	for i := 0; i < 3; i++ {
		m, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != MStoreFrame || m.Age != i || !bytes.Equal(m.Frame, want) {
			t.Fatalf("frame %d corrupted: kind=%v age=%d len=%d", i, m.Kind, m.Age, len(m.Frame))
		}
		m, err = srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != MDone || m.Age != i {
			t.Fatalf("done %d corrupted: %+v", i, m)
		}
	}

	// Master-forward shape: a received frame goes back out as one raw buffer.
	if err := cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels", Age: 9}, net.Buffers{want}); err != nil {
		t.Fatal(err)
	}
	m, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Age != 9 || !bytes.Equal(m.Frame, want) {
		t.Fatalf("forwarded frame corrupted: age=%d len=%d", m.Age, len(m.Frame))
	}
}

// TestTCPRecvLyingFrameLen: a peer announcing a 1 GiB raw frame and then
// sending a few bytes must cost Recv memory in proportion to what arrived,
// not the announced length, and Recv must fail once the peer closes.
func TestTCPRecvLyingFrameLen(t *testing.T) {
	cli, srv := tcpPair(t)
	// Send derives FrameLen from the payload, so the lying envelope goes
	// through the codec's raw write.
	if err := cli.(*tcpConn).write(&Msg{Kind: MStoreFrame, Field: "pixels", FrameLen: 1 << 30}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.(*tcpConn).nc.Write([]byte("short")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := srv.Recv()
	goruntime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Recv accepted a truncated raw frame")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("Recv allocated %d bytes for a 5-byte frame body", grew)
	}
}

// TestTCPRecvMultiChunkFrame: a raw frame longer than one receive chunk
// arrives intact, and a frame of at most one chunk takes exactly one
// allocation.
func TestTCPRecvMultiChunkFrame(t *testing.T) {
	cli, srv := tcpPair(t)
	want := make([]byte, 2*recvChunk+recvChunk/2)
	for i := range want {
		want[i] = byte(i * 7)
	}
	go cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "pixels", Age: 1}, net.Buffers{want})
	m, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Age != 1 || !bytes.Equal(m.Frame, want) {
		t.Fatalf("multi-chunk frame corrupted: age=%d len=%d", m.Age, len(m.Frame))
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	small := want[:recvChunk]
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(small)
		if _, err := readRawFrame(rd, len(small)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("one-chunk frame took %.0f allocations, want 1", allocs)
	}
}
