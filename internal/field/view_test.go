package field

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
)

// TestFetchViewAllBasics: a whole-generation view reads the same values as a
// snapshot, only once the generation is complete, without copying the slab.
func TestFetchViewAllBasics(t *testing.T) {
	f := New("v", Int32, 1, true)
	a := ArrayFromInt32([]int32{10, 20, 30, 40})
	if _, err := f.StoreAll(0, a); err != nil {
		t.Fatal(err)
	}
	var dst Array
	if _, ok := f.FetchViewAll(0, &dst); ok {
		t.Fatal("view granted on an incomplete generation")
	}
	f.MarkComplete(0)
	tok, ok := f.FetchViewAll(0, &dst)
	if !ok {
		t.Fatal("view refused on a complete generation")
	}
	defer tok.Release()
	if !dst.Equal(f.Snapshot(0)) {
		t.Fatalf("view %v != snapshot %v", &dst, f.Snapshot(0))
	}
	// The view aliases the generation slab, not a copy.
	if &dst.Int32s()[0] != &f.Snapshot(0).Int32s()[0] {
		// Snapshot copies, so compare against the field's own storage via a
		// second view instead.
		var dst2 Array
		tok2, _ := f.FetchViewAll(0, &dst2)
		defer tok2.Release()
		if &dst.Int32s()[0] != &dst2.Int32s()[0] {
			t.Fatal("two views of one generation alias different slabs")
		}
	}
}

// TestFetchViewSlice: prefix-fixed selectors alias the row run; non-prefix
// selectors and out-of-range coordinates fall back (return false).
func TestFetchViewSlice(t *testing.T) {
	f := New("m", Float64, 2, true)
	m := NewArray(Float64, 3, 4)
	for i := 0; i < m.Len(); i++ {
		m.SetFlat(Float64Val(float64(i)), i)
	}
	if _, err := f.StoreAll(0, m); err != nil {
		t.Fatal(err)
	}
	f.MarkComplete(0)

	var dst Array
	sel := []SlabDim{{Fixed: true, Index: 1}, {}}
	tok, ok := f.FetchViewSlice(0, sel, &dst)
	if !ok {
		t.Fatal("prefix-fixed slice view refused")
	}
	var want Array
	f.FetchSlice(0, sel, &want)
	if !dst.Equal(&want) {
		t.Fatalf("slice view %v != copied fetch %v", &dst, &want)
	}
	tok.Release()

	// Fixed dim after a free dim: not a contiguous run, must fall back.
	if _, ok := f.FetchViewSlice(0, []SlabDim{{}, {Fixed: true, Index: 2}}, &dst); ok {
		t.Fatal("non-prefix selector got a view")
	}
	// Out-of-range coordinate.
	if _, ok := f.FetchViewSlice(0, []SlabDim{{Fixed: true, Index: 9}, {}}, &dst); ok {
		t.Fatal("out-of-range selector got a view")
	}
}

// TestViewCopyOnWrite: mutating a view through the boxed setters must not
// write through to the field.
func TestViewCopyOnWrite(t *testing.T) {
	for _, k := range []Kind{Int32, String} {
		t.Run(k.String(), func(t *testing.T) {
			f := New("c", k, 1, true)
			for i := 0; i < 4; i++ {
				v := Int32Val(int32(i))
				if k == String {
					v = StringVal(fmt.Sprintf("s%d", i))
				}
				if _, err := f.Store(0, v, i); err != nil {
					t.Fatal(err)
				}
			}
			f.MarkComplete(0)
			before := f.Snapshot(0)
			var dst Array
			tok, ok := f.FetchViewAll(0, &dst)
			if !ok {
				t.Fatal("view refused")
			}
			defer tok.Release()
			dst.Set(StringVal("mutated"), 2)
			if got := dst.AtFlat(2).String(); got != "mutated" && k == String {
				t.Fatalf("view mutation lost: %q", got)
			}
			if !f.Snapshot(0).Equal(before) {
				t.Fatalf("view mutation wrote through to the field: %v", f.Snapshot(0))
			}
			// Growing an unshared ex-view must also leave the field alone
			// (classStr growth appends to the arena).
			dst.Grow(8)
			dst.Set(StringVal("tail"), 7)
			if !f.Snapshot(0).Equal(before) {
				t.Fatalf("view growth corrupted the field: %v", f.Snapshot(0))
			}
		})
	}
}

func arrInt64(vs []int64) *Array {
	a := NewArray(Int64, len(vs))
	copy(a.Int64s(), vs)
	return a
}

// TestViewPinsSlabAcrossDrop: DropAge with a live view must defer recycling
// to the last Release — no view ever observes a recycled slab.
func TestViewPinsSlabAcrossDrop(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	// Under the race detector sync.Pool.Put discards a random quarter of
	// what it is given, so a correct recycle can vanish from the pool.
	// Repeat the scenario until a recycled slab is seen; a slab that is
	// never recycled fails every attempt.
	for attempt := 1; !viewPinsSlabAcrossDrop(t); attempt++ {
		if !raceEnabled || attempt == 20 {
			t.Fatalf("slab not recycled after the last view release (%d attempts)", attempt)
		}
	}
}

// viewPinsSlabAcrossDrop runs one drop-with-live-view scenario and reports
// whether the released slab came back out of the pool.
func viewPinsSlabAcrossDrop(t *testing.T) bool {
	t.Helper()
	DrainAgePoolsForTest()

	f := New("p", Int32, 1, true)
	const n = 64
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i)
	}
	if _, err := f.StoreAll(0, ArrayFromInt32(vals)); err != nil {
		t.Fatal(err)
	}
	f.MarkComplete(0)

	var dst Array
	tok, ok := f.FetchViewAll(0, &dst)
	if !ok {
		t.Fatal("view refused")
	}
	if !f.DropAge(0) {
		t.Fatal("age not live")
	}
	if s := agePools[classI32].Get(); s != nil {
		t.Fatal("slab recycled into the pool while a view is live")
	}
	for i := 0; i < n; i++ {
		if got := dst.AtFlat(i).Int32(); got != int32(i) {
			t.Fatalf("view[%d] = %d after drop, want %d", i, got, i)
		}
	}
	tok.Release()
	s, _ := agePools[classI32].Get().(*ageStore)
	if s == nil {
		return false
	}
	if &s.data.i32[:1][0] != &dst.data.i32[0] {
		t.Fatal("recycled slab is not the viewed slab")
	}
	return true
}

// TestViewReleaseAgeKept: releasing a view of a still-live age must NOT
// recycle the slab out from under the field.
func TestViewReleaseAgeKept(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	DrainAgePoolsForTest()

	f := New("k", Int64, 1, true)
	if _, err := f.StoreAll(0, arrInt64([]int64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	f.MarkComplete(0)
	var dst Array
	tok, _ := f.FetchViewAll(0, &dst)
	tok.Release()
	if s := agePools[classI64].Get(); s != nil {
		t.Fatal("release of a view recycled a live generation")
	}
	if v, ok := f.At(0, 1); !ok || v.Int64() != 2 {
		t.Fatal("generation corrupted by view release")
	}
}

// TestViewRefcountConcurrentStress races view acquisition/release against
// generation drops and pool-recycling stores under -race: every view must
// read its generation's original values, never a cleared or reused slab.
func TestViewRefcountConcurrentStress(t *testing.T) {
	f := New("r", Int64, 1, true)
	const ages, n = 24, 128
	row := make([]int64, n)
	for g := 0; g < ages; g++ {
		for i := range row {
			row[i] = int64(g)
		}
		if _, err := f.StoreAll(g, arrInt64(row)); err != nil {
			t.Fatal(err)
		}
		f.MarkComplete(g)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var dst Array
			for it := 0; it < 400; it++ {
				g := (seed + it) % ages
				tok, ok := f.FetchViewAll(g, &dst)
				if !ok {
					continue // already dropped
				}
				for i := 0; i < dst.Len(); i++ {
					if got := dst.AtFlat(i).Int64(); got != int64(g) {
						select {
						case errs <- fmt.Errorf("view of age %d read %d at %d", g, got, i):
						default:
						}
						break
					}
				}
				tok.Release()
			}
		}(w)
	}
	// Drop ages and immediately create recycling pressure: new generations
	// pull slabs from the pool and overwrite them, so a refcount bug turns
	// into a visible wrong read (or a race report).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 0; g < ages; g++ {
			f.DropAge(g)
			for i := range row {
				row[i] = int64(1000 + g)
			}
			if _, err := f.StoreAll(ages+g, arrInt64(row)); err != nil {
				errs <- err
				return
			}
			f.MarkComplete(ages + g)
			goruntime.Gosched()
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestViewFetchZeroAllocs pins the whole-generation view fetch at zero
// allocations per op once the destination array exists.
func TestViewFetchZeroAllocs(t *testing.T) {
	f := New("z", Float64, 1, true)
	vals := make([]float64, 256)
	if _, err := f.StoreAll(0, ArrayFromFloat64(vals)); err != nil {
		t.Fatal(err)
	}
	f.MarkComplete(0)
	var dst Array
	allocs := testing.AllocsPerRun(200, func() {
		tok, ok := f.FetchViewAll(0, &dst)
		if !ok {
			t.Fatal("view refused")
		}
		tok.Release()
	})
	if allocs != 0 {
		t.Errorf("view fetch allocates %.1f per op, want 0", allocs)
	}
}

// TestArenaStringStoreAllocBudget pins the arena string store at ≤1
// allocation per row: a whole-generation store of String rows costs a few
// slab/arena allocations amortized over all rows, where the boxed []Value
// path allocated a string copy per element.
func TestArenaStringStoreAllocBudget(t *testing.T) {
	const rows = 256
	src := NewArray(String, rows)
	for i := 0; i < rows; i++ {
		src.SetFlat(StringVal(fmt.Sprintf("payload-%04d", i)), i)
	}
	f := New("s", String, 1, true)
	age := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := f.StoreAll(age, src); err != nil {
			t.Fatal(err)
		}
		f.MarkComplete(age)
		f.DropAge(age) // recycle, so steady-state cost is measured
		age++
	})
	perRow := allocs / rows
	if perRow > 1 {
		t.Errorf("arena string store allocates %.2f per row (%.0f per generation), want ≤1", perRow, allocs)
	}
}
