package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestTracerWraparound fills a small ring past capacity and checks that the
// oldest spans are evicted, order is preserved and drops are counted.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(Span{Name: fmt.Sprintf("s%d", i), Ph: PhaseComplete, TS: int64(i)})
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", 12+i); s.Name != want {
			t.Errorf("span[%d] = %q, want %q", i, s.Name, want)
		}
	}
	if tr.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", tr.Dropped())
	}
}

// TestTracerSpansFrom walks partly filled and wrapped rings in chunks: the
// chunks concatenate to Spans(), and a cursor behind the ring skips the
// evicted spans.
func TestTracerSpansFrom(t *testing.T) {
	for _, recorded := range []int{0, 5, 8, 13, 20} {
		tr := NewTracer(8)
		for i := 0; i < recorded; i++ {
			tr.Record(Span{Name: fmt.Sprintf("s%d", i), TS: int64(i)})
		}
		for _, chunk := range []int{1, 3, 8, 100} {
			var got []Span
			var seq uint64
			for {
				spans, next := tr.SpansFrom(seq, chunk)
				got = append(got, spans...)
				if len(spans) < chunk {
					break
				}
				seq = next
			}
			want := tr.Spans()
			if len(got) != len(want) {
				t.Fatalf("recorded %d, chunk %d: walked %d spans, want %d", recorded, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i].Name != want[i].Name {
					t.Fatalf("recorded %d, chunk %d: span[%d] = %q, want %q", recorded, chunk, i, got[i].Name, want[i].Name)
				}
			}
		}
	}
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: fmt.Sprintf("s%d", i)})
	}
	spans, next := tr.SpansFrom(2, 2) // s2..s5 were evicted
	if len(spans) != 2 || spans[0].Name != "s6" || spans[1].Name != "s7" || next != 8 {
		t.Fatalf("stale cursor: got %v next %d, want s6 s7 next 8", spans, next)
	}
	if spans, next := tr.SpansFrom(12, 4); len(spans) != 0 || next != 12 {
		t.Fatalf("cursor past the end: got %d spans, next %d", len(spans), next)
	}
}

func TestTracerDroppedCounter(t *testing.T) {
	tr := NewTracer(2)
	var c Counter
	tr.CountDropped(&c)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Name: "x"})
	}
	if c.Load() != 3 {
		t.Errorf("dropped counter = %d, want 3", c.Load())
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(Span{Name: "k", TID: g, TS: tr.Now()})
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 64 {
		t.Errorf("retained %d spans, want 64", got)
	}
	if tr.Dropped() != 8*100-64 {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), 8*100-64)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Name: "x"})
	if tr.Now() != 0 || tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer must be inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil tracer output is not valid JSON: %v", err)
	}
}

// TestChromeTraceRoundTrip checks the exported JSON parses as a trace_event
// file whose slices carry name, phase, timestamps and the age/index args.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.SetPID(3)
	tr.Record(Span{
		Name: "yDCT", Cat: "kernel", Ph: PhaseComplete,
		TS: 1500, Dur: 2500, TID: 2, Age: 4, Index: []int{7, 1},
		WaitNs: 100, FetchNs: 400, KernelNs: 2000, StoreNs: 100,
	})
	tr.Record(Span{Name: "yDCT", Cat: "commit", Ph: PhaseInstant, TS: 5000, Age: 4, Index: []int{7, 1}})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(f.TraceEvents))
	}
	x := f.TraceEvents[0]
	if x.Name != "yDCT" || x.Ph != "X" || x.PID != 3 || x.TID != 2 {
		t.Errorf("slice header wrong: %+v", x)
	}
	if x.TS != 1.5 || x.Dur != 2.5 { // ns → µs
		t.Errorf("ts/dur = %v/%v, want 1.5/2.5", x.TS, x.Dur)
	}
	if age, ok := x.Args["age"].(float64); !ok || age != 4 {
		t.Errorf("age arg = %v", x.Args["age"])
	}
	idx, ok := x.Args["index"].([]any)
	if !ok || len(idx) != 2 || idx[0].(float64) != 7 {
		t.Errorf("index arg = %v", x.Args["index"])
	}
	if x.Args["kernel_us"].(float64) != 2 {
		t.Errorf("kernel_us arg = %v", x.Args["kernel_us"])
	}
	i := f.TraceEvents[1]
	if i.Ph != "i" || i.Cat != "commit" {
		t.Errorf("instant event wrong: %+v", i)
	}
}
