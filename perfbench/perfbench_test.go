package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dist"
	"repro/internal/workloads"
)

// TestBenchConnForwardsInterfaces: a wrapped TCP conn still offers
// scatter-gather sends, traffic stats and idle timeouts, so the master
// behaves as it does on a bare conn.
func TestBenchConnForwardsInterfaces(t *testing.T) {
	l, err := dist.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := dist.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(dist.FrameConn); !ok {
		t.Fatal("the bare TCP conn is not a dist.FrameConn; the checks below prove nothing")
	}
	var wrapped dist.Conn = newBenchConn(c, nil, 0, nil)
	if _, ok := wrapped.(dist.FrameConn); !ok {
		t.Error("wrapped conn is not a dist.FrameConn")
	}
	if _, ok := wrapped.(dist.StatsReporter); !ok {
		t.Error("wrapped conn is not a dist.StatsReporter")
	}
	if _, ok := wrapped.(dist.IdleTimeoutConn); !ok {
		t.Error("wrapped conn is not a dist.IdleTimeoutConn")
	}
}

// TestClusterRunUsesStoreFrames: through the wrapper, an mjpeg-cluster
// encode still publishes and forwards whole-generation store frames and
// never falls back to one MStore per store.
func TestClusterRunUsesStoreFrames(t *testing.T) {
	workloads.RegisterPayloads()
	r := &run{seed: 1, layer: map[string][]float64{}}
	st, err := r.newStream(3, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := newFrameJob(st, nil, 0)
	if _, err := r.runCluster(j, false); err != nil {
		t.Fatal(err)
	}
	var framesIn, framesOut, stores int64
	for _, c := range j.masterConns {
		framesIn += c.recv[dist.MStoreFrame].Load()
		framesOut += c.sent[dist.MStoreFrame].Load()
		stores += c.recv[dist.MStore].Load() + c.sent[dist.MStore].Load()
	}
	if framesIn == 0 || framesOut == 0 {
		t.Errorf("store frames published %d, forwarded %d; want both > 0", framesIn, framesOut)
	}
	if stores != 0 {
		t.Errorf("%d per-store MStore messages crossed the master; want 0", stores)
	}
	if n := j.failedFrames(); n != 0 {
		t.Errorf("%d frames missing or wrong", n)
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json declares exactly the
// metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(runners))
	}
	for _, w := range bj.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
