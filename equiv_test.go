package p2g

// Scheduler equivalence stress: the work-stealing scheduler must reproduce
// the independent sequential oracles under any worker count and data
// granularity. Each case runs a program with randomized (but seeded) worker
// counts and granularities and checks every field generation against a
// sequential computation (the §V mul/sum recurrence, the standalone MJPEG
// encoder, sequential K-means) and every kernel's instance count against its
// closed form. Run under -race, this doubles as a concurrency stress of the
// stealing deques and batched event flushes.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/video"
	"repro/internal/workloads"
)

// runChecked executes prog() with the given options and fails the test on a
// run error or stalled kernel-ages.
func runChecked(t *testing.T, prog func() *Program, opts runtime.Options) (*runtime.Node, *runtime.Report) {
	t.Helper()
	opts.Output = io.Discard
	n, err := runtime.NewNode(prog(), opts)
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
	return n, rep
}

// checkInstances compares per-kernel instance counts with their closed form.
func checkInstances(t *testing.T, label string, rep *runtime.Report, want map[string]int) {
	t.Helper()
	for name, w := range want {
		if got := rep.Kernel(name).Instances; got != int64(w) {
			t.Errorf("%s: %s ran %d instances, want %d", label, name, got, w)
		}
	}
}

// checkMulSumOracle checks every m_data/p_data generation against the §V
// recurrence (m(0) = 10..14, p(a) = 2·m(a), m(a+1) = p(a)+5) and the
// instance counts against their closed form.
func checkMulSumOracle(t *testing.T, label string, n *runtime.Node, rep *runtime.Report, maxAge int) {
	t.Helper()
	m := []int32{10, 11, 12, 13, 14}
	for a := 0; a <= maxAge; a++ {
		p := make([]int32, len(m))
		for i, v := range m {
			p[i] = 2 * v
		}
		for _, fv := range []struct {
			name string
			want []int32
		}{{"m_data", m}, {"p_data", p}} {
			got, err := n.Snapshot(fv.name, a)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(field.ArrayFromInt32(fv.want)) {
				t.Fatalf("%s: %s(%d) = %v, want %v", label, fv.name, a, got, fv.want)
			}
		}
		next := make([]int32, len(p))
		for i, v := range p {
			next[i] = v + 5
		}
		m = next
	}
	ages := maxAge + 1
	checkInstances(t, label, rep, map[string]int{"init": 1, "mul2": 5 * ages, "plus5": 5 * ages, "print": ages})
}

// mjpegEquivFrames and the 32x32 geometry keep the MJPEG stress small: 4x4
// luma blocks and 2x2 blocks per chroma plane per frame.
const mjpegEquivFrames = 2

func mjpegEquivProgram() *Program {
	return workloads.MJPEG(workloads.MJPEGConfig{
		Source:  video.NewSynthetic(32, 32, mjpegEquivFrames, 7),
		FastDCT: true,
	})
}

// checkMJPEGOracle compares the dataflow bitstream with the standalone
// single-threaded encoder on the identical source, and the instance counts
// with the frame geometry (the source runs once more to observe end of
// stream, as does the writer).
func checkMJPEGOracle(t *testing.T, label string, n *runtime.Node, rep *runtime.Report) {
	t.Helper()
	var want bytes.Buffer
	enc := &mjpeg.Encoder{FastDCT: true}
	if _, err := enc.EncodeStream(video.NewSynthetic(32, 32, mjpegEquivFrames, 7), &want); err != nil {
		t.Fatal(err)
	}
	got, err := workloads.MJPEGStream(n, mjpegEquivFrames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: bitstream differs from the standalone encoder (%d vs %d bytes)", label, len(got), want.Len())
	}
	const f = mjpegEquivFrames
	checkInstances(t, label, rep, map[string]int{
		"read_splityuv": f + 1, "vlc_write": f + 1,
		"yDCT": f * 16, "uDCT": f * 4, "vDCT": f * 4,
	})
}

var kmeansEquivConfig = workloads.KMeansConfig{N: 120, K: 8, Iter: 3, Dim: 2, Seed: 7}

// checkKMeansOracle compares every centroids and membership generation with
// sequential K-means stopped after the matching iteration count, and the
// instance counts with Table III's closed form.
func checkKMeansOracle(t *testing.T, label string, n *runtime.Node, rep *runtime.Report) {
	t.Helper()
	cfg := kmeansEquivConfig
	points := kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed)
	for a := 0; a <= cfg.Iter; a++ {
		var want []kmeans.Point
		if a == 0 {
			want = kmeans.InitialCentroids(points, cfg.K)
		} else {
			want = kmeans.Sequential(points, cfg.K, a).Centroids
		}
		got, err := workloads.KMeansCentroids(n, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: centroids(%d) has %d clusters, want %d", label, a, len(got), len(want))
		}
		for c := range want {
			if kmeans.SqDist(got[c], want[c]) != 0 {
				t.Fatalf("%s: centroids(%d)[%d] = %v, sequential %v", label, a, c, got[c], want[c])
			}
		}
	}
	for a := 0; a < cfg.Iter; a++ {
		// membership(a) assigns against centroids(a): the membership the
		// sequential run holds after iteration a.
		want := kmeans.Sequential(points, cfg.K, a+1).Membership
		got, err := n.Snapshot("membership", a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Extent(0) != len(want) {
			t.Fatalf("%s: membership(%d) has %d points, want %d", label, a, got.Extent(0), len(want))
		}
		for i, w := range want {
			if g := int(got.At(i).Int32()); g != w {
				t.Fatalf("%s: membership(%d)[%d] = %d, sequential %d", label, a, i, g, w)
			}
		}
	}
	checkInstances(t, label, rep, map[string]int{
		"init": 1, "assign": cfg.N * cfg.Iter, "refine": cfg.K * cfg.Iter, "print": cfg.Iter + 1,
	})
}

func TestSchedulerEquivalenceMulSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		workers := 1 + rng.Intn(8)
		gran := 1 + rng.Intn(3)
		maxAge := 10 + rng.Intn(11)
		n, rep := runChecked(t, MulSum, runtime.Options{
			Workers:     workers,
			MaxAge:      maxAge,
			Granularity: map[string]int{"mul2": gran},
		})
		checkMulSumOracle(t, fmt.Sprintf("round %d (workers=%d gran=%d)", round, workers, gran), n, rep, maxAge)
	}
}

func TestSchedulerEquivalenceMJPEG(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 2; round++ {
		workers := 1 + rng.Intn(8)
		n, rep := runChecked(t, mjpegEquivProgram, runtime.Options{Workers: workers})
		checkMJPEGOracle(t, fmt.Sprintf("round %d (workers=%d)", round, workers), n, rep)
	}
}

func TestSchedulerEquivalenceKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 2; round++ {
		workers := 1 + rng.Intn(8)
		gran := 1 + rng.Intn(16)
		opts := workloads.KMeansOptions(kmeansEquivConfig, workers)
		opts.Granularity = map[string]int{"assign": gran}
		n, rep := runChecked(t, func() *Program { return workloads.KMeans(kmeansEquivConfig) }, opts)
		checkKMeansOracle(t, fmt.Sprintf("round %d (workers=%d gran=%d)", round, workers, gran), n, rep)
	}
}
