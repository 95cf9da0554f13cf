package runtime

// event is the message kernel instances send to the dependency analyzer. The
// paper's prototype is "a push-based system using event subscriptions on
// field operations": store statements emit events, and the analyzer shards —
// each in its own goroutine; one shard is the paper's dedicated analyzer
// thread — derive every new valid combination of age and index variables
// that became runnable. Workers buffer events per shard and flush them in
// batches (one channel send per batch); see workerState.
type event struct {
	isDone bool

	// store event fields
	fs  *fieldState
	age int
	// Element coordinates are inlined (coordKey already limits coordinates
	// to four 16-bit dimensions) so emitting a store event never allocates;
	// elemBig is the escape hatch for deeper manually-built coordinates.
	elemBuf [4]int32
	elemN   uint8
	elemBig []int
	whole   bool
	grew    bool
	extents []int

	// done event fields
	t       *ageTracker
	inst    *instState
	stores  int
	stopped bool

	// remote-done event: a remote kernel finished the given age.
	remoteDone *kernelState

	// stop ends a NoAutoQuiesce node.
	stop bool
}

// setElem records element coordinates inline when they fit the buffer.
func (ev *event) setElem(idx []int) {
	if len(idx) <= len(ev.elemBuf) {
		fits := true
		for i, c := range idx {
			if c != int(int32(c)) {
				fits = false
				break
			}
			ev.elemBuf[i] = int32(c)
		}
		if fits {
			ev.elemN = uint8(len(idx))
			return
		}
	}
	ev.elemBig = append([]int(nil), idx...)
}

// elem decodes the element coordinates into dst scratch (valid only for
// non-whole store events).
func (ev *event) elem(dst *[4]int) []int {
	if ev.elemBig != nil {
		return ev.elemBig
	}
	for i := 0; i < int(ev.elemN); i++ {
		dst[i] = int(ev.elemBuf[i])
	}
	return dst[:ev.elemN]
}
