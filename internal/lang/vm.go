package lang

// The bytecode VM: a single switch-dispatch loop over bcProg.code operating
// on per-invocation register files. Frames come from a per-kernel sync.Pool,
// so steady-state body execution allocates nothing on the hot path (cold
// paths — implicit array grow, boxed Any arithmetic, runtime errors — may
// allocate).

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/field"
)

// bcFrame holds one invocation's register files and scratch state.
type bcFrame struct {
	i    []int64
	f    []float64
	s    []string
	v    []field.Value
	arrs []*field.Array // per-local resolved array cache
	buf  []byte         // cout assembly buffer
}

// body wraps the program as a core kernel body.
func (p *bcProg) body() func(*core.Ctx) error {
	p.frames.New = func() any {
		return &bcFrame{
			i:    make([]int64, p.nI),
			f:    make([]float64, p.nF),
			s:    make([]string, p.nS),
			v:    make([]field.Value, p.nV),
			arrs: make([]*field.Array, p.nArr),
		}
	}
	return func(ctx *core.Ctx) error {
		fr := p.frames.Get().(*bcFrame)
		err := p.exec(ctx, fr)
		// Drop references before pooling: strings and boxed values would pin
		// memory, and cached array pointers belong to a Ctx that will be
		// reset. A frame abandoned by a panic is simply not pooled; the
		// runtime's runBody recovers the panic either way.
		clear(fr.s)
		clear(fr.v)
		clear(fr.arrs)
		fr.buf = fr.buf[:0]
		p.frames.Put(fr)
		return err
	}
}

// arr resolves the array local li through the frame cache. The first touch
// goes through Ctx.LocalArray, which materializes the default and marks the
// local bound with the same semantics as Ctx.Array.
func (p *bcProg) arr(ctx *core.Ctx, fr *bcFrame, li int32) *field.Array {
	a := fr.arrs[li]
	if a == nil {
		a = ctx.LocalArray(int(li))
		fr.arrs[li] = a
	}
	return a
}

// coldIdx converts coordinate registers for the boxed At/Put cold path.
func coldIdx(regs []int64) []int {
	out := make([]int, len(regs))
	for i, v := range regs {
		out[i] = int(v)
	}
	return out
}

func (p *bcProg) exec(ctx *core.Ctx, fr *bcFrame) error {
	code := p.code
	ri, rf, rs, rv := fr.i, fr.f, fr.s, fr.v
	for pc := 0; ; {
		in := code[pc]
		pc++
		switch in.op {
		case opRet:
			return nil
		case opJmp:
			pc = int(in.a)
		case opJzI:
			if ri[in.a] == 0 {
				pc = int(in.b)
			}
		case opJnzI:
			if ri[in.a] != 0 {
				pc = int(in.b)
			}
		case opJzF:
			if rf[in.a] == 0 {
				pc = int(in.b)
			}
		case opJzV:
			if !rv[in.a].Bool() {
				pc = int(in.b)
			}
		case opErr:
			return p.errs[in.a]
		case opStop:
			ctx.Stop()

		case opLdI:
			ri[in.a] = p.ints[in.b]
		case opLdF:
			rf[in.a] = p.floats[in.b]
		case opLdS:
			rs[in.a] = p.strs[in.b]
		case opZeroV:
			rv[in.a] = field.Zero(field.Kind(in.b))
		case opMovI:
			ri[in.a] = ri[in.b]
		case opMovF:
			rf[in.a] = rf[in.b]
		case opMovS:
			rs[in.a] = rs[in.b]
		case opMovV:
			rv[in.a] = rv[in.b]

		case opI2F:
			rf[in.a] = float64(ri[in.b])
		case opF2I:
			ri[in.a] = int64(rf[in.b])
		case opTrunc32:
			ri[in.a] = int64(int32(ri[in.b]))
		case opTruncU8:
			ri[in.a] = int64(uint8(ri[in.b]))
		case opBoolI:
			ri[in.a] = b2i(ri[in.b] != 0)
		case opBoolF:
			ri[in.a] = b2i(rf[in.b] != 0)
		case opBoolV:
			ri[in.a] = b2i(rv[in.b].Bool())
		case opNotI:
			ri[in.a] = b2i(ri[in.b] == 0)
		case opNotF:
			ri[in.a] = b2i(rf[in.b] == 0)
		case opNotV:
			ri[in.a] = b2i(!rv[in.b].Bool())
		case opI2S:
			rs[in.a] = strconv.FormatInt(ri[in.b], 10)
		case opF2S:
			rs[in.a] = strconv.FormatFloat(rf[in.b], 'g', -1, 64)
		case opB2S:
			if ri[in.b] != 0 {
				rs[in.a] = "true"
			} else {
				rs[in.a] = "false"
			}
		case opV2S:
			rs[in.a] = rv[in.b].String()
		case opBoxI:
			rv[in.a] = field.IntValOf(field.Kind(in.c), ri[in.b])
		case opBoxF:
			rv[in.a] = field.FloatValOf(field.Kind(in.c), rf[in.b])
		case opBoxS:
			rv[in.a] = field.StrValOf(field.Kind(in.c), rs[in.b])
		case opConvV:
			rv[in.a] = rv[in.b].Convert(field.Kind(in.c))
		case opUnboxVI:
			ri[in.a] = rv[in.b].Int64()
		case opUnboxVF:
			rf[in.a] = rv[in.b].Float64()

		case opAddI:
			ri[in.a] = ri[in.b] + ri[in.c]
		case opSubI:
			ri[in.a] = ri[in.b] - ri[in.c]
		case opMulI:
			ri[in.a] = ri[in.b] * ri[in.c]
		case opDivI:
			if ri[in.c] == 0 {
				return p.errs[in.d]
			}
			ri[in.a] = ri[in.b] / ri[in.c]
		case opModI:
			if ri[in.c] == 0 {
				return p.errs[in.d]
			}
			ri[in.a] = ri[in.b] % ri[in.c]
		case opNegI:
			ri[in.a] = -ri[in.b]

		case opAddF:
			rf[in.a] = rf[in.b] + rf[in.c]
		case opSubF:
			rf[in.a] = rf[in.b] - rf[in.c]
		case opMulF:
			rf[in.a] = rf[in.b] * rf[in.c]
		case opDivF:
			if rf[in.c] == 0 {
				return p.errs[in.d]
			}
			rf[in.a] = rf[in.b] / rf[in.c]
		case opNegF:
			rf[in.a] = -rf[in.b]

		case opConcatS:
			rs[in.a] = rs[in.b] + rs[in.c]

		case opEqI:
			ri[in.a] = b2i(ri[in.b] == ri[in.c])
		case opNeI:
			ri[in.a] = b2i(ri[in.b] != ri[in.c])
		case opLtI:
			ri[in.a] = b2i(ri[in.b] < ri[in.c])
		case opLeI:
			ri[in.a] = b2i(ri[in.b] <= ri[in.c])
		case opGtI:
			ri[in.a] = b2i(ri[in.b] > ri[in.c])
		case opGeI:
			ri[in.a] = b2i(ri[in.b] >= ri[in.c])
		// Float comparisons replicate cmpResult(compareFloat(a, b)): a total
		// order in which NaN compares equal to everything, unlike IEEE.
		case opEqF:
			ri[in.a] = b2i(!(rf[in.b] < rf[in.c]) && !(rf[in.b] > rf[in.c]))
		case opNeF:
			ri[in.a] = b2i(rf[in.b] < rf[in.c] || rf[in.b] > rf[in.c])
		case opLtF:
			ri[in.a] = b2i(rf[in.b] < rf[in.c])
		case opLeF:
			ri[in.a] = b2i(!(rf[in.b] > rf[in.c]))
		case opGtF:
			ri[in.a] = b2i(rf[in.b] > rf[in.c])
		case opGeF:
			ri[in.a] = b2i(!(rf[in.b] < rf[in.c]))
		case opEqS:
			ri[in.a] = b2i(rs[in.b] == rs[in.c])
		case opNeS:
			ri[in.a] = b2i(rs[in.b] != rs[in.c])

		case opArithV:
			site := &p.sites[in.d]
			nv, err := arith(site.tok, site.op, rv[in.b], rv[in.c])
			if err != nil {
				return err
			}
			rv[in.a] = nv
		case opIncV:
			v := rv[in.b]
			if v.Kind().Float() {
				rv[in.a] = field.Float64Val(v.Float64() + float64(in.c))
			} else {
				rv[in.a] = field.Int64Val(v.Int64() + int64(in.c))
			}
		case opNegV:
			v := rv[in.b]
			if v.Kind().Float() {
				rv[in.a] = field.Float64Val(-v.Float64())
			} else {
				rv[in.a] = field.Int64Val(-v.Int64())
			}
		case opAbsV:
			v := rv[in.b]
			if v.Kind().Float() {
				rv[in.a] = field.Float64Val(math.Abs(v.Float64()))
			} else {
				x := v.Int64()
				if x < 0 {
					x = -x
				}
				rv[in.a] = field.Int64Val(x)
			}
		case opMinV:
			a, b := rv[in.b], rv[in.c]
			if a.Kind().Float() || b.Kind().Float() {
				rv[in.a] = field.Float64Val(math.Min(a.Float64(), b.Float64()))
			} else if a.Int64() < b.Int64() {
				rv[in.a] = a
			} else {
				rv[in.a] = b
			}
		case opMaxV:
			a, b := rv[in.b], rv[in.c]
			if a.Kind().Float() || b.Kind().Float() {
				rv[in.a] = field.Float64Val(math.Max(a.Float64(), b.Float64()))
			} else if a.Int64() > b.Int64() {
				rv[in.a] = a
			} else {
				rv[in.a] = b
			}

		case opSqrtF:
			if rf[in.b] < 0 {
				return p.errs[in.d]
			}
			rf[in.a] = math.Sqrt(rf[in.b])
		case opFloorF:
			rf[in.a] = math.Floor(rf[in.b])
		case opCosF:
			rf[in.a] = math.Cos(rf[in.b])
		case opSinF:
			rf[in.a] = math.Sin(rf[in.b])
		case opPowF:
			rf[in.a] = math.Pow(rf[in.b], rf[in.c])
		case opAbsI:
			x := ri[in.b]
			if x < 0 {
				x = -x
			}
			ri[in.a] = x
		case opAbsF:
			rf[in.a] = math.Abs(rf[in.b])
		case opMinI:
			if ri[in.b] < ri[in.c] {
				ri[in.a] = ri[in.b]
			} else {
				ri[in.a] = ri[in.c]
			}
		case opMaxI:
			if ri[in.b] > ri[in.c] {
				ri[in.a] = ri[in.b]
			} else {
				ri[in.a] = ri[in.c]
			}
		case opMinF:
			rf[in.a] = math.Min(rf[in.b], rf[in.c])
		case opMaxF:
			rf[in.a] = math.Max(rf[in.b], rf[in.c])

		case opLdLI:
			ri[in.a] = ctx.LocalValue(int(in.b)).Int64()
		case opLdLF:
			rf[in.a] = ctx.LocalValue(int(in.b)).Float64()
		case opLdLS:
			rs[in.a] = ctx.LocalValue(int(in.b)).Str()
		case opLdLV:
			rv[in.a] = ctx.LocalValue(int(in.b))
		case opStLI:
			ctx.SetLocalValue(int(in.a), field.IntValOf(field.Kind(in.c), ri[in.b]))
		case opStLF:
			ctx.SetLocalValue(int(in.a), field.FloatValOf(field.Kind(in.c), rf[in.b]))
		case opStLS:
			ctx.SetLocalValue(int(in.a), field.StringVal(rs[in.b]))
		case opStLV:
			ctx.SetLocalValue(int(in.a), rv[in.b])
		case opLdAge:
			ri[in.a] = int64(ctx.Age())
		case opLdIdx:
			ri[in.a] = int64(ctx.Coord(int(in.b)))

		case opGetI:
			a := p.arr(ctx, fr, in.b)
			idx := ri[in.c : in.c+in.d]
			off := a.FlatOffset64(idx)
			if off < 0 {
				a.At(coldIdx(idx)...) // panics with Array.At's message
			}
			ri[in.a] = a.FlatGetInt(off)
		case opGetF:
			a := p.arr(ctx, fr, in.b)
			idx := ri[in.c : in.c+in.d]
			off := a.FlatOffset64(idx)
			if off < 0 {
				a.At(coldIdx(idx)...)
			}
			rf[in.a] = a.FlatGetFloat(off)
		case opGetV:
			a := p.arr(ctx, fr, in.b)
			idx := ri[in.c : in.c+in.d]
			off := a.FlatOffset64(idx)
			if off < 0 {
				a.At(coldIdx(idx)...)
			}
			rv[in.a] = a.AtFlat(off)
		case opPutI:
			a := p.arr(ctx, fr, in.a)
			idx := ri[in.c : in.c+in.d]
			if off := a.FlatOffset64(idx); off >= 0 {
				a.FlatSetInt(off, ri[in.b])
			} else {
				// Grow, negative-index and rank-mismatch cases take
				// Array.Put's boxed path (and its panics).
				a.Put(field.Int64Val(ri[in.b]), coldIdx(idx)...)
			}
		case opPutF:
			a := p.arr(ctx, fr, in.a)
			idx := ri[in.c : in.c+in.d]
			if off := a.FlatOffset64(idx); off >= 0 {
				a.FlatSetFloat(off, rf[in.b])
			} else {
				a.Put(field.Float64Val(rf[in.b]), coldIdx(idx)...)
			}
		case opPutV:
			a := p.arr(ctx, fr, in.a)
			idx := ri[in.c : in.c+in.d]
			if off := a.FlatOffset64(idx); off >= 0 {
				a.SetFlat(rv[in.b], off)
			} else {
				a.Put(rv[in.b], coldIdx(idx)...)
			}
		case opExtent:
			a := p.arr(ctx, fr, in.b)
			ri[in.a] = int64(a.Extent(int(ri[in.c])))

		case opNow:
			ri[in.a] = ctx.Now().UnixMilli()
		case opExpired:
			exp, err := ctx.Expired(p.timerNames[in.b], time.Duration(ri[in.c])*time.Millisecond)
			if err != nil {
				return err
			}
			ri[in.a] = b2i(exp)
		case opResetTimer:
			ctx.ResetTimer(p.timerNames[in.a])

		case opCoutClear:
			fr.buf = fr.buf[:0]
		case opCoutI:
			fr.buf = strconv.AppendInt(fr.buf, ri[in.a], 10)
		case opCoutF:
			fr.buf = strconv.AppendFloat(fr.buf, rf[in.a], 'g', -1, 64)
		case opCoutB:
			if ri[in.a] != 0 {
				fr.buf = append(fr.buf, "true"...)
			} else {
				fr.buf = append(fr.buf, "false"...)
			}
		case opCoutS:
			fr.buf = append(fr.buf, rs[in.a]...)
		case opCoutV:
			fr.buf = append(fr.buf, rv[in.a].String()...)
		case opCoutFlush:
			ctx.Printf("%s", fr.buf)

		default:
			return fmt.Errorf("lang: corrupt bytecode: opcode %d at pc %d", in.op, pc-1)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
