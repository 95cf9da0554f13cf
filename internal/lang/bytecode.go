package lang

// Register bytecode for kernel bodies, the only kernel-body back-end. The
// lowering (lower.go) turns the code-block AST into a flat instruction slice
// executed by a switch-dispatch VM (vm.go): scalars live in unboxed
// int64/float64/string register files partitioned at compile time by the
// declared kinds, values of dynamic kind live boxed, array accesses index the
// typed slab backing directly, and control flow is jump offsets. The
// differential tests in bytecode_test.go and fuzz_test.go pin it to
// bit-identical results with the closure interpreter in closure_test.go.
//
// Instruction encoding: one opcode plus four int32 operands {a, b, c, d}.
// Operand roles by convention: a is the destination register (or jump target
// for opJmp, local index for stores), b/c are sources or auxiliary indices,
// d carries a constant-table index (runtime error sites, boxed-arith sites)
// or the coordinate count for array ops. Register operands are indices into
// the frame's class-specific file: i (int64), f (float64), s (string),
// v (boxed field.Value). Jumps are absolute instruction indices.

import (
	"fmt"
	"strings"
	"sync"
)

type opcode uint8

// Opcodes. Suffix conventions: I/F/S/V name the register class an op works
// in; ops that move between classes name source and destination (opI2F).
const (
	// control flow
	opRet  opcode = iota // return nil
	opJmp                // a=target
	opJzI                // a=ireg  b=target: jump if i[a] == 0
	opJnzI               // a=ireg  b=target: jump if i[a] != 0
	opJzF                // a=freg  b=target: jump if f[a] == 0 (NaN is truthy)
	opJzV                // a=vreg  b=target: jump if !v[a].Bool()
	opErr                // a=errIdx: return errs[a]
	opStop               // ctx.Stop()

	// constants and moves
	opLdI   // a=dst b=constIdx (ints)
	opLdF   // a=dst b=constIdx (floats)
	opLdS   // a=dst b=constIdx (strs)
	opZeroV // a=dst b=kind: field.Zero(kind)
	opMovI  // a=dst b=src
	opMovF
	opMovS
	opMovV

	// conversions between register classes (Value.Convert semantics)
	opI2F     // f[a] = float64(i[b])
	opF2I     // i[a] = int64(f[b])
	opTrunc32 // i[a] = int64(int32(i[b]))
	opTruncU8 // i[a] = int64(uint8(i[b]))
	opBoolI   // i[a] = (i[b] != 0)
	opBoolF   // i[a] = (f[b] != 0)
	opBoolV   // i[a] = v[b].Bool()
	opNotI    // i[a] = (i[b] == 0)
	opNotF    // i[a] = (f[b] == 0)
	opNotV    // i[a] = !v[b].Bool()
	opI2S     // s[a] = FormatInt(i[b])
	opF2S     // s[a] = FormatFloat(f[b], 'g', -1, 64)
	opB2S     // s[a] = "true"/"false" from i[b]
	opV2S     // s[a] = v[b].String()
	opBoxI    // v[a] = Value{kind c, i: i[b]} (payload already canonical)
	opBoxF    // v[a] = Value{kind c, f: f[b]}
	opBoxS    // v[a] = Value{kind c, s: s[b]}
	opConvV   // v[a] = v[b].Convert(kind c)
	opUnboxVI // i[a] = v[b].Int64()
	opUnboxVF // f[a] = v[b].Float64()

	// integer arithmetic (a=dst b,c=src; d=errIdx where noted)
	opAddI
	opSubI
	opMulI
	opDivI // d=errIdx: division by zero
	opModI // d=errIdx: modulo by zero
	opNegI // a=dst b=src

	// float arithmetic
	opAddF
	opSubF
	opMulF
	opDivF // d=errIdx: division by zero
	opNegF

	// strings
	opConcatS // s[a] = s[b] + s[c]

	// comparisons (i[a] = 0/1; float variants use compareFloat's total
	// order, under which NaN compares equal to everything)
	opEqI
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF
	opEqS
	opNeS

	// boxed ops for operands of dynamic kind, built on arith() and the
	// field.Value methods, so dynamic-kind semantics cannot drift
	opArithV // v[a] = arith(sites[d], v[b], v[c])
	opIncV   // v[a] = v[b] incremented by c (float/int by dynamic kind)
	opNegV   // v[a] = -v[b] by dynamic kind
	opAbsV
	opMinV // v[a] = min(v[b], v[c]) with the language's dynamic rules
	opMaxV

	// math builtins
	opSqrtF // f[a] = sqrt(f[b]); d=errIdx: sqrt of negative value
	opFloorF
	opCosF
	opSinF
	opPowF // f[a] = pow(f[b], f[c])
	opAbsI
	opAbsF
	opMinI // i[a] = min(i[b], i[c]) payload order
	opMaxI
	opMinF // f[a] = math.Min(f[b], f[c])
	opMaxF

	// kernel context: scalar locals by declaration index, age, coordinates
	opLdLI  // i[a] = ctx.LocalValue(b).Int64()
	opLdLF  // f[a] = ctx.LocalValue(b).Float64()
	opLdLS  // s[a] = ctx.LocalValue(b).Str()
	opLdLV  // v[a] = ctx.LocalValue(b)
	opStLI  // ctx.SetLocalValue(a, Value{kind c, i: i[b]})
	opStLF  // ctx.SetLocalValue(a, Value{kind c, f: f[b]})
	opStLS  // ctx.SetLocalValue(a, StringVal(s[b]))
	opStLV  // ctx.SetLocalValue(a, v[b])
	opLdAge // i[a] = ctx.Age()
	opLdIdx // i[a] = ctx.Coord(b)

	// arrays: b=local index, c=first of d contiguous int coordinate regs;
	// out-of-range coordinates take the boxed At/Put cold path so panics and
	// implicit grow match Array.At/Put exactly
	opGetI // i[a] = arr(b).FlatGetInt(off)
	opGetF // f[a] = arr(b).FlatGetFloat(off)
	opGetV // v[a] = arr(b).AtFlat(off)
	opPutI // a=local index, b=value reg: arr(a).FlatSetInt(off, i[b])
	opPutF
	opPutV
	opExtent // i[a] = arr(b).Extent(int(i[c]))

	// timers and clock
	opNow        // i[a] = ctx.Now().UnixMilli()
	opExpired    // i[a] = ctx.Expired(timers[b], i[c] ms); errors propagate
	opResetTimer // ctx.ResetTimer(timers[a])

	// cout: appends into the frame's byte buffer, flushed in one Printf
	opCoutClear
	opCoutI // append FormatInt(i[a])
	opCoutF // append FormatFloat(f[a], 'g', -1, 64)
	opCoutB // append "true"/"false" from i[a]
	opCoutS // append s[a]
	opCoutV // append v[a].String()
	opCoutFlush

	numOpcodes
)

var opNames = [numOpcodes]string{
	opRet: "ret", opJmp: "jmp", opJzI: "jzi", opJnzI: "jnzi", opJzF: "jzf",
	opJzV: "jzv", opErr: "err", opStop: "stop",
	opLdI: "ldi", opLdF: "ldf", opLdS: "lds", opZeroV: "zerov",
	opMovI: "movi", opMovF: "movf", opMovS: "movs", opMovV: "movv",
	opI2F: "i2f", opF2I: "f2i", opTrunc32: "trunc32", opTruncU8: "truncu8",
	opBoolI: "booli", opBoolF: "boolf", opBoolV: "boolv",
	opNotI: "noti", opNotF: "notf", opNotV: "notv",
	opI2S: "i2s", opF2S: "f2s", opB2S: "b2s", opV2S: "v2s",
	opBoxI: "boxi", opBoxF: "boxf", opBoxS: "boxs", opConvV: "convv",
	opUnboxVI: "unboxvi", opUnboxVF: "unboxvf",
	opAddI: "addi", opSubI: "subi", opMulI: "muli", opDivI: "divi",
	opModI: "modi", opNegI: "negi",
	opAddF: "addf", opSubF: "subf", opMulF: "mulf", opDivF: "divf",
	opNegF: "negf", opConcatS: "concats",
	opEqI: "eqi", opNeI: "nei", opLtI: "lti", opLeI: "lei", opGtI: "gti",
	opGeI: "gei", opEqF: "eqf", opNeF: "nef", opLtF: "ltf", opLeF: "lef",
	opGtF: "gtf", opGeF: "gef", opEqS: "eqs", opNeS: "nes",
	opArithV: "arithv", opIncV: "incv", opNegV: "negv", opAbsV: "absv",
	opMinV: "minv", opMaxV: "maxv",
	opSqrtF: "sqrtf", opFloorF: "floorf", opCosF: "cosf", opSinF: "sinf",
	opPowF: "powf", opAbsI: "absi", opAbsF: "absf",
	opMinI: "mini", opMaxI: "maxi", opMinF: "minf", opMaxF: "maxf",
	opLdLI: "ldli", opLdLF: "ldlf", opLdLS: "ldls", opLdLV: "ldlv",
	opStLI: "stli", opStLF: "stlf", opStLS: "stls", opStLV: "stlv",
	opLdAge: "ldage", opLdIdx: "ldidx",
	opGetI: "geti", opGetF: "getf", opGetV: "getv",
	opPutI: "puti", opPutF: "putf", opPutV: "putv", opExtent: "extent",
	opNow: "now", opExpired: "expired", opResetTimer: "resettimer",
	opCoutClear: "coutclear", opCoutI: "couti", opCoutF: "coutf",
	opCoutB: "coutb", opCoutS: "couts", opCoutV: "coutv",
	opCoutFlush: "coutflush",
}

// instr is one bytecode instruction. See the operand-role conventions in the
// package comment above the opcode list.
type instr struct {
	op         opcode
	a, b, c, d int32
}

// boxSite records the operator and source position of a boxed arithmetic
// instruction so opArithV's errors carry the operator's source position.
type boxSite struct {
	op  string
	tok Token
}

// bcProg is one kernel body lowered to bytecode, plus its constant tables and
// a pool of execution frames. A bcProg is immutable after lowering and safe
// for concurrent execution; each invocation checks a frame out of the pool,
// so steady-state body execution does not allocate.
type bcProg struct {
	kernel     string
	code       []instr
	ints       []int64
	floats     []float64
	strs       []string
	errs       []error // precomputed runtime errors (sites are static)
	sites      []boxSite
	timerNames []string

	nI, nF, nS, nV int // register file sizes
	nArr           int // array-local cache size (len(kernel.Locals))

	frames sync.Pool
}

// constant interning; the tables are tiny, so linear scans beat maps.

func (p *bcProg) intConst(x int64) int32 {
	for i, v := range p.ints {
		if v == x {
			return int32(i)
		}
	}
	p.ints = append(p.ints, x)
	return int32(len(p.ints) - 1)
}

func (p *bcProg) floatConst(x float64) int32 {
	// No deduplication: bit-distinct values (-0.0, NaN payloads) must stay
	// distinct and the table stays tiny anyway.
	p.floats = append(p.floats, x)
	return int32(len(p.floats) - 1)
}

func (p *bcProg) strConst(x string) int32 {
	for i, v := range p.strs {
		if v == x {
			return int32(i)
		}
	}
	p.strs = append(p.strs, x)
	return int32(len(p.strs) - 1)
}

func (p *bcProg) errConst(err error) int32 {
	p.errs = append(p.errs, err)
	return int32(len(p.errs) - 1)
}

func (p *bcProg) siteConst(op string, tok Token) int32 {
	p.sites = append(p.sites, boxSite{op: op, tok: tok})
	return int32(len(p.sites) - 1)
}

func (p *bcProg) timerConst(name string) int32 {
	for i, v := range p.timerNames {
		if v == name {
			return int32(i)
		}
	}
	p.timerNames = append(p.timerNames, name)
	return int32(len(p.timerNames) - 1)
}

// disasm renders the program as an annotated listing for p2gc -disasm.
func (p *bcProg) disasm(localNames []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: %d instructions, registers i=%d f=%d s=%d v=%d\n",
		p.kernel, len(p.code), p.nI, p.nF, p.nS, p.nV)
	local := func(i int32) string {
		if int(i) < len(localNames) {
			return localNames[i]
		}
		return fmt.Sprintf("#%d", i)
	}
	for pc, in := range p.code {
		fmt.Fprintf(&b, "%4d  %-10s %4d %4d %4d %4d", pc, opNames[in.op], in.a, in.b, in.c, in.d)
		switch in.op {
		case opLdI:
			fmt.Fprintf(&b, "  ; i%d = %d", in.a, p.ints[in.b])
		case opLdF:
			fmt.Fprintf(&b, "  ; f%d = %g", in.a, p.floats[in.b])
		case opLdS:
			fmt.Fprintf(&b, "  ; s%d = %q", in.a, p.strs[in.b])
		case opJmp:
			fmt.Fprintf(&b, "  ; -> %d", in.a)
		case opJzI, opJnzI, opJzF, opJzV:
			fmt.Fprintf(&b, "  ; -> %d", in.b)
		case opErr:
			fmt.Fprintf(&b, "  ; error: %v", p.errs[in.a])
		case opDivI, opModI, opDivF, opSqrtF:
			fmt.Fprintf(&b, "  ; on error: %v", p.errs[in.d])
		case opArithV:
			fmt.Fprintf(&b, "  ; op %q", p.sites[in.d].op)
		case opLdLI, opLdLF, opLdLS, opLdLV:
			fmt.Fprintf(&b, "  ; local %s", local(in.b))
		case opStLI, opStLF, opStLS, opStLV:
			fmt.Fprintf(&b, "  ; local %s", local(in.a))
		case opGetI, opGetF, opGetV, opExtent:
			fmt.Fprintf(&b, "  ; array %s", local(in.b))
		case opPutI, opPutF, opPutV:
			fmt.Fprintf(&b, "  ; array %s", local(in.a))
		case opExpired:
			fmt.Fprintf(&b, "  ; timer %s", p.timerNames[in.b])
		case opResetTimer:
			fmt.Fprintf(&b, "  ; timer %s", p.timerNames[in.a])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
