package runtime

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
)

// TestShardedMultiShardQuiescence runs the aging mul/sum cycle across four
// analyzer shards and checks every generation of both fields against the
// sequential recurrence (expectedMulSum) and the instance counts against
// their closed form, with clean auto-quiescence (the two-phase pending==0
// protocol must neither terminate early nor hang) and nothing stalled.
func TestShardedMultiShardQuiescence(t *testing.T) {
	const maxAge = 40
	n, err := NewNode(mulSum(t), Options{
		Workers: 4, MaxAge: maxAge, Output: io.Discard, AnalyzerShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	checkMulSumFields(t, n, maxAge)
	for name, want := range map[string]int64{"init": 1, "mul2": 5 * (maxAge + 1), "plus5": 5 * (maxAge + 1), "print": maxAge + 1} {
		if got := rep.Kernel(name).Instances; got != want {
			t.Errorf("%s ran %d instances, want %d", name, got, want)
		}
	}
}

// TestShardCountReported sweeps the analyzer shard count, one shard (the
// paper's single analyzer thread) included: the report must show the shard
// count it ran with and one event counter per shard, with events processed.
func TestShardCountReported(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		rep, err := Run(mulSum(t), Options{Workers: 2, MaxAge: 10, Output: io.Discard, AnalyzerShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if rep.AnalyzerShards != shards || len(rep.ShardEvents) != shards {
			t.Fatalf("shards=%d: report shows %d shards, %d event counters", shards, rep.AnalyzerShards, len(rep.ShardEvents))
		}
		var events int64
		for _, ev := range rep.ShardEvents {
			events += ev
		}
		if events == 0 {
			t.Fatalf("shards=%d: zero shard events", shards)
		}
	}
}

// TestShardedNoAutoQuiesceStop exercises the distributed-node lifecycle on a
// multi-shard analyzer: a shadow node (all kernels remote, NoAutoQuiesce)
// must accept injected stores and remote completions, report Idle once they
// are absorbed, and shut down only on Stop().
func TestShardedNoAutoQuiesceStop(t *testing.T) {
	b := core.NewBuilder("shadow")
	b.Field("data", field.Int32, 1, true)
	b.Kernel("produce").Age("a").
		Local("v", field.Int32, 0).
		Store("data", core.AgeVar(0), []core.IndexSpec{core.Lit(0)}, "v").
		Body(func(c *core.Ctx) error { return nil })
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{
		Workers: 2, NoAutoQuiesce: true,
		RemoteKernels:  map[string]bool{"produce": true},
		AnalyzerShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := n.Run(); err != nil {
			t.Errorf("shadow run: %v", err)
		}
	}()
	for age := 0; age < 8; age++ {
		err := n.InjectStore(StoreNotice{
			Field: "data", Age: age, Elem: []int{0},
			Value: field.Int32Val(int32(100 + age)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InjectRemoteDone("produce", age); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !n.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("shadow node never became idle")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("NoAutoQuiesce node terminated without Stop()")
	default:
	}
	n.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("node did not stop after Stop()")
	}
	for age := 0; age < 8; age++ {
		arr, err := n.Snapshot("data", age)
		if err != nil {
			t.Fatal(err)
		}
		if got := arr.At(0).Int32(); got != int32(100+age) {
			t.Fatalf("data(%d)[0] = %d, want %d", age, got, 100+age)
		}
	}
}

// TestPushBulkEpochOrdering pins the cross-shard ordering contract the
// sharded analyzer leans on: batches pushed through PushBulk in arbitrary
// age order are popped oldest-age-first by the stealing scheduler's epoch,
// regardless of which deque round-robin placement put them in.
func TestPushBulkEpochOrdering(t *testing.T) {
	s := newStealScheduler(4, nil, nil)
	rng := rand.New(rand.NewSource(11))
	var bs []*batch
	for i := 0; i < 64; i++ {
		b := getBatch()
		b.tracker = &ageTracker{age: rng.Intn(10)}
		b.insts = append(b.insts, &instState{})
		bs = append(bs, b)
	}
	// Several bulk pushes, simulating bursts from different shards.
	for i := 0; i < len(bs); i += 16 {
		s.PushBulk(bs[i : i+16])
	}
	last := -1
	for i := 0; i < len(bs); i++ {
		b, ok := s.TryPop(0)
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if b.tracker.age < last {
			t.Fatalf("pop %d: age %d after age %d — epoch ordering violated", i, b.tracker.age, last)
		}
		last = b.tracker.age
	}
	if _, ok := s.TryPop(0); ok {
		t.Fatal("queue not empty after draining")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}

// TestShardedStatsMaxAggregation is the regression test for the report's
// high-water columns under concurrent shards: per-shard maxima must
// aggregate as a maximum (a sum over shards would fabricate a depth no
// queue ever reached, and picking shard 0 would understate the run).
func TestShardedStatsMaxAggregation(t *testing.T) {
	n, err := NewNode(mulSum(t), Options{AnalyzerShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n.sh == nil || len(n.sh.shards) != 3 {
		t.Fatalf("expected 3 analyzer shards, got %+v", n.sh)
	}
	for i, s := range n.sh.shards {
		s.maxQueue = 10 * (i + 1)
		s.maxBacklog = 7 - i
		s.busyNs = int64(100 * (i + 1))
	}
	st := n.sh.stats(false)
	if st.maxQueue != 30 {
		t.Errorf("maxQueue = %d, want max across shards 30", st.maxQueue)
	}
	if st.maxBacklog != 7 {
		t.Errorf("maxBacklog = %d, want max across shards 7", st.maxBacklog)
	}
	if len(st.shardEvents) != 3 || len(st.shardBacklogMax) != 3 {
		t.Fatalf("per-shard slices: %v %v, want length 3", st.shardEvents, st.shardBacklogMax)
	}
	if st.shardBacklogMax[2] != 5 {
		t.Errorf("shardBacklogMax[2] = %d, want 5", st.shardBacklogMax[2])
	}
	rep := n.buildReport(time.Second, st)
	if rep.MaxQueueDepth != 30 || rep.MaxEventBacklog != 7 {
		t.Errorf("report marks = %d/%d, want 30/7", rep.MaxQueueDepth, rep.MaxEventBacklog)
	}
	// Merging two such reports keeps per-shard backlog maxima elementwise.
	m := MergeReports(rep, rep)
	if m.MaxQueueDepth != 30 || m.ShardMaxBacklog[0] != 7 {
		t.Errorf("merged marks = %d/%v, want 30 and elementwise max 7", m.MaxQueueDepth, m.ShardMaxBacklog)
	}
	if m.ShardEvents[0] != 2*st.shardEvents[0] {
		t.Errorf("merged ShardEvents[0] = %d, want sum", m.ShardEvents[0])
	}
}

// TestShardedMetricsSurface checks satellite instrumentation end to end: a
// multi-shard run with a registry surfaces per-shard event counters, backlog
// gauges, the analyze stage lane, and the attribution line.
func TestShardedMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := NewNode(mulSum(t), Options{
		Workers: 2, MaxAge: 12, Output: io.Discard,
		AnalyzerShards: 2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var events int64
	for i := 0; i < 2; i++ {
		events += snap.Counters[obs.Label(obs.MAnalyzerShardEvents, "shard", fmt.Sprint(i))]
	}
	if events == 0 {
		t.Error("no per-shard event counters recorded")
	}
	if rep.Stages == nil {
		t.Fatal("no stage totals with a registry supplied")
	}
	if rep.Stages.AnalyzeNs <= 0 {
		t.Error("AnalyzeNs not recorded")
	}
	if rep.Stages.AnalyzeMaxShardNs <= 0 || rep.Stages.AnalyzeMaxShardNs > rep.Stages.AnalyzeNs {
		t.Errorf("AnalyzeMaxShardNs = %d, AnalyzeNs = %d", rep.Stages.AnalyzeMaxShardNs, rep.Stages.AnalyzeNs)
	}
	if rep.Stages.WallNs != rep.Wall.Nanoseconds() {
		t.Errorf("WallNs = %d, want %d", rep.Stages.WallNs, rep.Wall.Nanoseconds())
	}
	table := rep.Table()
	for _, want := range []string{"analyzer: 2 shards", "analyze"} {
		if !strings.Contains(table, want) {
			t.Errorf("Table() missing %q:\n%s", want, table)
		}
	}
	attr := rep.Attribution()
	if !strings.Contains(attr, "analyze") {
		t.Errorf("Attribution() missing analyze lane:\n%s", attr)
	}
}
