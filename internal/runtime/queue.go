// Package runtime implements a P2G execution node: the paper's low-level
// scheduler (LLS). It consists of a dependency analyzer sharded by
// (kernel, age) across dedicated goroutines — with one shard, exactly the
// prototype's dedicated analyzer thread — plus a pool of worker goroutines
// that dispatch kernel instances from age-ordered ready queues.
//
// The analyzer receives store/resize/done events from running kernel
// instances, derives every new valid combination of age and index variables
// that became runnable, and enqueues them. Ready instances are dispatched
// oldest-age-first so that aging cycles (mul2/plus5) cannot starve younger
// work, and each instance is dispatched exactly once (write-once semantics
// make re-execution meaningless).
//
// The ready queue is the work-stealing scheduler of sched.go: per-worker
// age-ordered deques plus an age epoch that keeps dispatch oldest-age-first.
package runtime

// batch is the unit of dispatch: one or more kernel instances of the same
// kernel and age, combined by the data-granularity coarsening described in
// §V-A of the paper. With granularity 1 every batch holds a single instance.
type batch struct {
	tracker *ageTracker
	insts   []*instState
}

// ageHeap is a min-heap of ages with non-empty buckets.
type ageHeap []int

func (h ageHeap) Len() int           { return len(h) }
func (h ageHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h ageHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ageHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ageHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
