package runtime

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

func mkBatch(age int) *batch {
	return &batch{tracker: &ageTracker{age: age}, insts: []*instState{{}}}
}

func pushOne(s *stealScheduler, b *batch) { s.PushBulk([]*batch{b}) }

// TestStealOldestFirst is the ordering contract of the stealing scheduler: a
// worker whose own deque holds only age N+1 work must steal a peer's age N
// batch (below the epoch) instead of dispatching its younger local work.
func TestStealOldestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	steals := reg.Counter(obs.MStealsTotal)
	s := newStealScheduler(2, steals, nil)

	// Round-robin: the first push lands in deque 1, the second in deque 0.
	pushOne(s, mkBatch(1)) // deque 1 <- age 1
	pushOne(s, mkBatch(0)) // deque 0 <- age 0
	if s.deques[1].min.Load() != 1 || s.deques[0].min.Load() != 0 {
		t.Fatalf("unexpected deque placement: min0=%d min1=%d",
			s.deques[0].min.Load(), s.deques[1].min.Load())
	}

	// Worker 1 holds age 1 locally but the epoch is 0: it must steal the
	// age-0 batch from worker 0's deque first.
	b, ok := s.TryPop(1)
	if !ok || b.tracker.age != 0 {
		t.Fatalf("first pop got age %v (ok=%v), want steal of age 0", b, ok)
	}
	if got := steals.Load(); got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
	b, ok = s.TryPop(1)
	if !ok || b.tracker.age != 1 {
		t.Fatalf("second pop got %v (ok=%v), want local age 1", b, ok)
	}
	// Popping own (now oldest) work is not a steal.
	if got := steals.Load(); got != 1 {
		t.Fatalf("steals after local pop = %d, want still 1", got)
	}
	if _, ok := s.TryPop(1); ok {
		t.Fatal("scheduler should be empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

// TestReadyQueueAgeOrder checks the ready queue (the stealing scheduler) on
// one deque: ages pop oldest first, same-age batches in FIFO order, Pop
// reports closed after Close and drain, and a push after Close is ignored.
func TestReadyQueueAgeOrder(t *testing.T) {
	s := newStealScheduler(1, nil, nil)
	pushed := []*batch{mkBatch(3), mkBatch(1), mkBatch(2), mkBatch(1)}
	for _, b := range pushed {
		pushOne(s, b)
	}
	for i, want := range []*batch{pushed[1], pushed[3], pushed[2], pushed[0]} {
		b, ok := s.TryPop(0)
		if !ok || b != want {
			t.Fatalf("pop %d got batch %p (ok=%v), want %p of age %d", i, b, ok, want, want.tracker.age)
		}
	}
	if s.Len() != 0 {
		t.Errorf("queue len = %d", s.Len())
	}
	s.Close()
	if _, ok := s.Pop(0); ok {
		t.Error("pop after close+drain should report closed")
	}
	pushOne(s, mkBatch(1)) // push after close is a no-op
	if s.Len() != 0 {
		t.Error("push after close should be ignored")
	}
}

// TestReadyQueueBlocksUntilPush checks a Pop on an empty ready queue blocks
// until a batch is pushed and then returns that batch.
func TestReadyQueueBlocksUntilPush(t *testing.T) {
	s := newStealScheduler(1, nil, nil)
	done := make(chan int, 1)
	go func() {
		b, ok := s.Pop(0)
		if !ok {
			done <- -1
			return
		}
		done <- b.tracker.age
	}()
	pushOne(s, mkBatch(9))
	if got := <-done; got != 9 {
		t.Fatalf("blocked pop got %d", got)
	}
}

// TestStealSchedulerEpochNeverSkipsAge pushes ages in descending order onto
// alternating deques and checks a single consumer drains them oldest-first —
// the epoch must chase every older push.
func TestStealSchedulerEpochNeverSkipsAge(t *testing.T) {
	s := newStealScheduler(4, nil, nil)
	for age := 9; age >= 0; age-- {
		pushOne(s, mkBatch(age))
	}
	for want := 0; want < 10; want++ {
		b, ok := s.TryPop(2)
		if !ok {
			t.Fatalf("ran dry at age %d", want)
		}
		if b.tracker.age != want {
			t.Fatalf("popped age %d, want %d", b.tracker.age, want)
		}
	}
}

// TestStealSchedulerBlockingPop checks Pop blocks until a push arrives,
// still hands out batches queued before Close, returns false once Close has
// drained, and ignores pushes after Close.
func TestStealSchedulerBlockingPop(t *testing.T) {
	s := newStealScheduler(2, nil, nil)
	got := make(chan int, 1)
	go func() {
		b, ok := s.Pop(0)
		if !ok {
			got <- -1
			return
		}
		got <- b.tracker.age
	}()
	pushOne(s, mkBatch(7))
	if age := <-got; age != 7 {
		t.Fatalf("blocked pop got %d, want 7", age)
	}
	queued := mkBatch(4)
	pushOne(s, queued)
	s.Close()
	if b, ok := s.Pop(1); !ok || b != queued {
		t.Fatalf("Pop after Close got %v (ok=%v), want the batch queued before Close", b, ok)
	}
	if _, ok := s.Pop(1); ok {
		t.Fatal("Pop after Close+drain should report closed")
	}
	pushOne(s, mkBatch(1)) // push after close is a no-op
	if s.Len() != 0 {
		t.Fatal("push after close should be ignored")
	}
}

// TestStealSchedulerConcurrent hammers the scheduler from concurrent
// producers and consumers (run under -race) and checks every batch is
// dispatched exactly once.
func TestStealSchedulerConcurrent(t *testing.T) {
	const workers, perAge, ages = 4, 50, 8
	s := newStealScheduler(workers, nil, nil)
	var wg sync.WaitGroup
	seen := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok := s.Pop(w)
				if !ok {
					return
				}
				seen[w] += len(b.insts)
			}
		}()
	}
	for a := 0; a < ages; a++ {
		for i := 0; i < perAge; i++ {
			pushOne(s, mkBatch(a))
		}
	}
	s.Close() // workers drain the remaining queued batches before exiting
	wg.Wait()
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != perAge*ages {
		t.Fatalf("dispatched %d batches, want %d", total, perAge*ages)
	}
}
