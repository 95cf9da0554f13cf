package runtime

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// viewBenchNode builds a one-kernel node whose whole-fetch input generation
// is pre-stored and complete, so exec can be driven directly through the
// zero-copy view path.
func viewBenchNode(t testing.TB) (*Node, *ageTracker, *instState) {
	t.Helper()
	pb := core.NewBuilder("viewbench")
	pb.Field("in", field.Float64, 1, true)
	pb.Kernel("consume").
		Local("v", field.Float64, 1).
		FetchAll("v", "in", core.AgeAt(0)).
		Body(func(c *core.Ctx) error {
			_ = c.Array("v")
			return nil
		})
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := n.fields["in"].f.StoreAll(0, field.ArrayFromFloat64(vals)); err != nil {
		t.Fatal(err)
	}
	n.fields["in"].f.MarkComplete(0)
	ks := n.kernels["consume"]
	return n, &ageTracker{ks: ks, age: 0}, &instState{}
}

// TestViewDispatchAllocFree pins the whole-generation view-fetch dispatch at
// zero allocations per op: aliasing the slab replaces the per-instance copy
// entirely.
func TestViewDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n, tr, is := viewBenchNode(t)
	if !n.kernels["consume"].fetchPlans[0].viewable {
		t.Fatal("whole fetch not planned as viewable")
	}
	w := newWorkerState(n, 0)
	n.exec(tr, is, w) // warm the frame pool
	allocs := testing.AllocsPerRun(200, func() {
		for j := range w.bufs {
			w.bufs[j] = w.bufs[j][:0]
		}
		n.exec(tr, is, w)
	})
	if allocs != 0 {
		t.Errorf("view-fetch dispatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNonPrefixSlabFetchCopies pins the copying fetch that remains beside
// the views: a slab selector whose fixed dimension is not a prefix (a column
// of a row-major generation) addresses no contiguous slab run, so it is
// planned non-viewable and snapshots into the instance's array. Every column
// sum must match its closed form.
func TestNonPrefixSlabFetchCopies(t *testing.T) {
	const rows, cols, ages = 4, 6, 3
	b := core.NewBuilder("colsum")
	b.Field("grid", field.Int32, 2, true)
	b.Field("sums", field.Int32, 1, true)
	b.Kernel("src").Age("a").
		Local("g", field.Int32, 2).
		StoreAll("grid", core.AgeVar(0), "g").
		Body(func(c *core.Ctx) error {
			if c.Age() >= ages {
				return nil
			}
			g := c.Array("g")
			for r := 0; r < rows; r++ {
				for col := 0; col < cols; col++ {
					g.Put(field.Int32Val(int32(c.Age()*100+r*10+col)), r, col)
				}
			}
			return nil
		})
	b.Kernel("colsum").Age("a").Index("c").
		Local("col", field.Int32, 1).
		Local("s", field.Int32, 0).
		Fetch("col", "grid", core.AgeVar(0), core.All(), core.Idx("c")).
		Store("sums", core.AgeVar(0), []core.IndexSpec{core.Idx("c")}, "s").
		Body(func(c *core.Ctx) error {
			var s int32
			for _, v := range c.Array("col").Int32s() {
				s += v
			}
			c.SetInt32("s", s)
			return nil
		})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(prog, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n.kernels["colsum"].fetchPlans[0].viewable {
		t.Fatal("column slab fetch planned as viewable")
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("colsum").Instances; got != ages*cols {
		t.Errorf("colsum ran %d instances, want %d", got, ages*cols)
	}
	for a := 0; a < ages; a++ {
		s, err := n.Snapshot("sums", a)
		if err != nil {
			t.Fatal(err)
		}
		for col := 0; col < cols; col++ {
			want := int32(rows*(a*100+col) + 10*rows*(rows-1)/2)
			if got := s.At(col).Int32(); got != want {
				t.Errorf("sums(%d)[%d] = %d, want %d", a, col, got, want)
			}
		}
	}
}

// TestViewFetchMatchesOracle runs the aging mul/sum cycle, whose print kernel
// fetches both fields whole through zero-copy views, and checks every
// generation of both fields against the sequential recurrence
// (expectedMulSum); run under -race in CI.
func TestViewFetchMatchesOracle(t *testing.T) {
	const maxAge = 40
	n, err := NewNode(mulSum(t), Options{Workers: 4, MaxAge: maxAge, Output: io.Discard})
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
}
