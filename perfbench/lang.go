package main

import (
	_ "embed"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lang"
	"repro/internal/runtime"
)

// dctstatsSrc is the benchmark's copy of testdata/dctstats.p2g. Its frame
// count, blocks per frame and LCG seed are placeholders filled per run.
//
//go:embed dctstats.p2g
var dctstatsSrc string

// Size of one lang-dct job.
const (
	langFrames = 8
	langBlocks = 24
)

// dctSource returns the program text for the given LCG seed.
func dctSource(seed uint64) string {
	return strings.NewReplacer(
		"@FRAMES@", strconv.Itoa(langFrames),
		"@BLOCKS@", strconv.Itoa(langBlocks),
		"@SEED@", strconv.FormatUint(seed%1000003, 10),
	).Replace(dctstatsSrc)
}

// lockedBuffer collects cout lines from concurrently running instances.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// langDCT runs the kernel-language DCT-statistics pipeline: each job
// compiles the program with lang.Compile (default bytecode back-end), runs
// it on a local node and checks every frame's cout line against a Go
// transliteration of the dct and stats kernels.
func (r *run) langDCT() error {
	src := dctSource(r.seed)
	want := dctReference(r.seed%1000003, langFrames, langBlocks)
	listings, err := lang.Disassemble("dctstats", src)
	if err != nil {
		return err
	}
	fallbacks := 0
	for _, l := range listings {
		if l.Fallback {
			fallbacks++
		}
	}
	r.note("lang.fallback_kernels", float64(fallbacks))
	r.loop(func() error {
		job := r.rec.begin("job", "lang-dct", 0)
		defer r.rec.end(job)
		start := time.Now()
		sp := r.rec.begin("lang.compile", "", job.ID)
		prog, err := lang.Compile("dctstats", src)
		r.rec.end(sp)
		if err != nil {
			r.finishJob(start, time.Time{}, err)
			return err
		}
		r.note("lang.compile_ms", ms(time.Since(start)))
		out := &lockedBuffer{}
		lr, err := r.runLocal(prog, runtime.Options{Output: out}, job.ID)
		if lr.node != nil {
			defer lr.node.Release()
		}
		if err == nil {
			got := strings.Split(strings.TrimSuffix(out.b.String(), "\n"), "\n")
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				err = errors.New("cout lines differ from the reference")
			}
		}
		r.finishJob(start, lr.ready, err)
		if err == nil {
			r.noteReport(lr.rep)
			r.noteTracer(lr.tracer.NodeTrace("local", 1))
		}
		return err
	})
	return nil
}

// dctReference transliterates the read, dct and stats kernels of
// dctstats.p2g to Go and returns the sorted expected cout lines. Explicit
// float64 conversions keep each operation separately rounded, as the
// kernel language evaluates it.
func dctReference(seed uint64, frames, blocks int) []string {
	const pi = 3.141592653589793
	lines := make([]string, 0, frames)
	blk := make([]float64, 64)
	for a := 0; a < frames; a++ {
		s := int64(seed) + int64(a)
		total := int64(0)
		for b := 0; b < blocks; b++ {
			for p := 0; p < 64; p++ {
				s = (s*1103515245 + 12345) % 2147483648
				blk[p] = float64(s % 256)
			}
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					sum := 0.0
					for x := 0; x < 8; x++ {
						for y := 0; y < 8; y++ {
							cu := math.Cos(float64(float64(float64(2.0*float64(x))+1.0)*float64(u)) * pi / 16.0)
							cv := math.Cos(float64(float64(float64(2.0*float64(y))+1.0)*float64(v)) * pi / 16.0)
							sum = float64(sum + float64(float64((blk[x*8+y]-128.0)*cu)*cv))
						}
					}
					au, av := 1.0, 1.0
					if u == 0 {
						au = 0.70710678118
					}
					if v == 0 {
						av = 0.70710678118
					}
					coef := float64(float64(float64(0.25*au)*av) * sum)
					q := int64(coef / 16.0)
					if (u != 0 || v != 0) && q != 0 {
						total++
					}
				}
			}
		}
		lines = append(lines, fmt.Sprintf("frame %d: %d blocks, %d surviving AC coefficients", a, blocks, total))
	}
	// read stops at age frames, which leaves that age's generations empty;
	// stats still runs for it and reports an empty frame.
	lines = append(lines, fmt.Sprintf("frame %d: 0 blocks, 0 surviving AC coefficients", frames))
	sort.Strings(lines)
	return lines
}
