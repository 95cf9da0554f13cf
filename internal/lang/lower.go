package lang

// Lowering from the code-block AST to register bytecode (bytecode.go).
//
// The lowering is the only back-end and the only compile-time check of the
// code blocks: every diagnostic a kernel body can produce is raised here
// (via panic/recover, see lowerFail) in source order, and every kernel
// Compile accepts runs on the VM. The invariants the lowering maintains:
//
//   - Typed registers always hold canonical payloads for their static kind
//     (the same representation Value.Convert produces), so re-boxing with
//     field.IntValOf/FloatValOf/StrValOf is exact.
//   - Any value whose kind cannot be pinned at compile time — Any variables
//     and arrays, fetches from Any fields, mixed-kind min/max — lives in a
//     boxed V register, and all arithmetic on it goes through opArithV,
//     which calls arith() — dynamic-kind semantics cannot drift.
//   - Variable registers are allocated monotonically and never reclaimed on
//     scope pop; temporaries restart at the variable watermark at each
//     statement.

import (
	"fmt"

	"repro/internal/field"
)

// regClass partitions values by the register file that holds them.
type regClass uint8

const (
	clI regClass = iota // int64 payloads: Uint8, Bool, Int32, Int64
	clF                 // float64 payloads: Float32, Float64
	clS                 // strings
	clV                 // boxed field.Value: Any or dynamically-kinded
)

func kindClass(k field.Kind) regClass {
	switch k {
	case field.Float32, field.Float64:
		return clF
	case field.String:
		return clS
	case field.Any, field.Invalid:
		return clV
	default:
		return clI
	}
}

// lval is a lowered expression value: a register plus its static kind. For
// clV the kind is dynamic (field.Any stands in for "unknown").
type lval struct {
	cl   regClass
	kind field.Kind
	reg  int32
}

// lslot is a declared block-local variable.
type lslot struct {
	cl   regClass
	kind field.Kind
	reg  int32
}

// varKind classifies an identifier during lowering.
type varKind uint8

const (
	vUnknown varKind = iota
	vSlot            // block-local variable
	vLocal           // kernel scalar local
	vArray           // kernel array local
	vAge             // kernel age variable
	vIndex           // kernel index variable
	vTimer           // global timer
	vEndl            // the endl stream manipulator
)

// lref classifies a resolved identifier.
type lref struct {
	kind varKind
	slot lslot
	li   int // kernel local index for vLocal/vArray
	typ  field.Kind
	pos  int // coordinate position for vIndex
}

type loopFrame struct {
	breaks    []int
	continues []int
}

// lowerFail carries a lowering error through panic/recover.
type lowerFail struct{ err error }

type lowerer struct {
	k      *KernelDef
	timers map[string]bool
	p      *bcProg

	scopes  []map[string]lslot
	localCl []regClass // effective class per kernel local

	varI, varF, varS, varV int32 // variable watermarks per class
	tI, tF, tS, tV         int32 // temporary tops per class

	loops   []*loopFrame
	orphans []int // break/continue jumps outside any loop
}

// lowerKernelBody lowers one kernel's code blocks to bytecode. Any failure —
// a diagnostic or an unexpected panic — is returned as an error, so Compile
// never panics.
func lowerKernelBody(k *KernelDef, timers map[string]bool, fields map[string]FieldDecl) (p *bcProg, err error) {
	defer func() {
		if r := recover(); r != nil {
			p = nil
			if lf, ok := r.(lowerFail); ok {
				err = lf.err
			} else {
				err = fmt.Errorf("lang: lowering %s: %v", k.Name, r)
			}
		}
	}()
	lo := &lowerer{
		k:      k,
		timers: timers,
		p:      &bcProg{kernel: k.Name, nArr: len(k.Locals)},
	}
	lo.classifyLocals(fields)
	lo.push()
	for _, blk := range k.Blocks {
		for _, s := range blk.Stmts {
			lo.resetTmps()
			lo.stmtDiscard(s)
		}
	}
	lo.pop()
	lo.emit(opRet, 0, 0, 0, 0)
	return lo.p, nil
}

// classifyLocals decides the register class used to access each kernel local.
// A local stays typed only when every value the runtime can install in it has
// the declared kind with a canonical payload; otherwise it is accessed boxed.
func (lo *lowerer) classifyLocals(fields map[string]FieldDecl) {
	lo.localCl = make([]regClass, len(lo.k.Locals))
	for li := range lo.k.Locals {
		l := &lo.k.Locals[li]
		cl := kindClass(l.Kind)
		if l.Rank > 0 && l.Kind == field.String {
			// Unset elements of string arrays read as Invalid values.
			cl = clV
		}
		for _, f := range lo.k.Fetches {
			if f.Local != l.Name {
				continue
			}
			// A fetch from a field of another kind (Any fields included)
			// installs values of that kind, and string fields report unset
			// elements as Invalid; only a boxed register preserves either.
			// Undeclared fields and fetches of the wrong rank are rejected
			// when the program is built.
			fd, ok := fields[f.Ref.Field]
			if !ok || fd.Kind != l.Kind || (l.Rank == 0 && fd.Kind == field.String) {
				cl = clV
			}
		}
		lo.localCl[li] = cl
	}
}

// ---- infrastructure ----

func (lo *lowerer) failf(tok Token, format string, args ...any) {
	panic(lowerFail{err: errAt(tok, format, args...)})
}

func (lo *lowerer) push() { lo.scopes = append(lo.scopes, map[string]lslot{}) }
func (lo *lowerer) pop()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) clsPtrs(cl regClass) (vp, tp *int32, np *int) {
	switch cl {
	case clI:
		return &lo.varI, &lo.tI, &lo.p.nI
	case clF:
		return &lo.varF, &lo.tF, &lo.p.nF
	case clS:
		return &lo.varS, &lo.tS, &lo.p.nS
	default:
		return &lo.varV, &lo.tV, &lo.p.nV
	}
}

// varReg allocates a variable register: monotonic, never reclaimed, so no
// two variables ever share a register.
func (lo *lowerer) varReg(cl regClass) int32 {
	vp, tp, np := lo.clsPtrs(cl)
	r := *vp
	(*vp)++
	if *tp < *vp {
		*tp = *vp
	}
	if int(*vp) > *np {
		*np = int(*vp)
	}
	return r
}

// tmp allocates a temporary above the variable watermark; resetTmps recycles
// all temporaries at each statement boundary.
func (lo *lowerer) tmp(cl regClass) int32 {
	_, tp, np := lo.clsPtrs(cl)
	r := *tp
	(*tp)++
	if int(*tp) > *np {
		*np = int(*tp)
	}
	return r
}

// tmpBlockI allocates n contiguous int temporaries (array coordinates).
func (lo *lowerer) tmpBlockI(n int) int32 {
	base := lo.tI
	lo.tI += int32(n)
	if int(lo.tI) > lo.p.nI {
		lo.p.nI = int(lo.tI)
	}
	return base
}

func (lo *lowerer) resetTmps() {
	lo.tI, lo.tF, lo.tS, lo.tV = lo.varI, lo.varF, lo.varS, lo.varV
}

func (lo *lowerer) emit(op opcode, a, b, c, d int32) int {
	lo.p.code = append(lo.p.code, instr{op: op, a: a, b: b, c: c, d: d})
	return len(lo.p.code) - 1
}

func (lo *lowerer) here() int32 { return int32(len(lo.p.code)) }

func (lo *lowerer) emitJmp() int { return lo.emit(opJmp, 0, 0, 0, 0) }

// patch points a previously emitted jump at target: opJmp carries the target
// in a, the conditional jumps in b.
func (lo *lowerer) patch(pc int, target int32) {
	if pc < 0 {
		return
	}
	*jumpTarget(&lo.p.code[pc]) = target
}

// jumpTarget returns the operand holding in's target, or nil when in is not a
// jump.
func jumpTarget(in *instr) *int32 {
	switch in.op {
	case opJmp:
		return &in.a
	case opJzI, opJnzI, opJzF, opJzV:
		return &in.b
	}
	return nil
}

// detach lowers s out of line: its code is cut from the program and returned
// with jump targets relative to its start, for attach to place later. Every
// jump in it stays inside it, as s is lowered by stmtDiscard.
func (lo *lowerer) detach(s Stmt) []instr {
	start := len(lo.p.code)
	lo.stmtDiscard(s)
	code := append([]instr(nil), lo.p.code[start:]...)
	lo.p.code = lo.p.code[:start]
	for i := range code {
		if t := jumpTarget(&code[i]); t != nil {
			*t -= int32(start)
		}
	}
	return code
}

// attach appends code returned by detach at the current position.
func (lo *lowerer) attach(code []instr) {
	base := lo.here()
	for _, in := range code {
		if t := jumpTarget(&in); t != nil {
			*t += base
		}
		lo.p.code = append(lo.p.code, in)
	}
}

func (lo *lowerer) emitMov(cl regClass, dst, src int32) {
	if dst == src {
		return
	}
	switch cl {
	case clI:
		lo.emit(opMovI, dst, src, 0, 0)
	case clF:
		lo.emit(opMovF, dst, src, 0, 0)
	case clS:
		lo.emit(opMovS, dst, src, 0, 0)
	default:
		lo.emit(opMovV, dst, src, 0, 0)
	}
}

// emitRuntimeErr lowers an expression that unconditionally errors when
// reached (the language reports these lazily at run time, e.g. `%` on
// floats). Code after the opErr is unreachable; the dummy register keeps the
// lowering well-formed.
func (lo *lowerer) emitRuntimeErr(err error) lval {
	lo.emit(opErr, lo.p.errConst(err), 0, 0, 0)
	return lval{cl: clI, kind: field.Int64, reg: lo.tmp(clI)}
}

// resolve classifies an identifier: block scopes innermost-first, kernel
// locals, the age variable, index variables, timers, endl.
func (lo *lowerer) resolve(name string) lref {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if sl, ok := lo.scopes[i][name]; ok {
			return lref{kind: vSlot, slot: sl, typ: sl.kind}
		}
	}
	for li := range lo.k.Locals {
		l := &lo.k.Locals[li]
		if l.Name == name {
			if l.Rank > 0 {
				return lref{kind: vArray, li: li, typ: l.Kind}
			}
			return lref{kind: vLocal, li: li, typ: l.Kind}
		}
	}
	if name == lo.k.AgeVar && name != "" {
		return lref{kind: vAge}
	}
	for pos, iv := range lo.k.Indexes {
		if iv == name {
			return lref{kind: vIndex, pos: pos}
		}
	}
	if lo.timers[name] {
		return lref{kind: vTimer}
	}
	if name == "endl" {
		return lref{kind: vEndl}
	}
	return lref{kind: vUnknown}
}

func (lo *lowerer) declare(tok Token, name string, k field.Kind) lslot {
	top := lo.scopes[len(lo.scopes)-1]
	if _, dup := top[name]; dup {
		lo.failf(tok, "variable %q redeclared in the same scope", name)
	}
	cl := kindClass(k)
	sl := lslot{cl: cl, kind: k, reg: lo.varReg(cl)}
	top[name] = sl
	return sl
}

// ---- statements ----

// stmtDiscard lowers a statement whose break/continue control is discarded
// (top-level statements, for-loop init and post clauses):
// loop controls inside it that escape any local loop jump to the end of the
// statement, which is exactly "ctrl ignored, continue after it".
func (lo *lowerer) stmtDiscard(s Stmt) {
	savedLoops, savedOrphans := lo.loops, lo.orphans
	lo.loops, lo.orphans = nil, nil
	lo.stmt(s)
	end := lo.here()
	for _, pc := range lo.orphans {
		lo.patch(pc, end)
	}
	lo.loops, lo.orphans = savedLoops, savedOrphans
}

func (lo *lowerer) stmt(s Stmt) {
	switch st := s.(type) {
	case DeclStmt:
		// The initializer is lowered before the declaration, so `int x = x;`
		// resolves the outer x.
		if st.Init != nil {
			v := lo.expr(st.Init)
			sl := lo.declare(st.Tok, st.Name, st.Kind)
			lo.storeSlot(sl, v)
		} else {
			sl := lo.declare(st.Tok, st.Name, st.Kind)
			lo.storeZero(sl)
		}

	case AssignStmt:
		lo.assign(st)

	case IncStmt:
		lo.incStmt(st)

	case IfStmt:
		c := lo.expr(st.Cond)
		jf := lo.truthyJumpFalse(c)
		lo.blockStmt(st.Then)
		if st.Else != nil {
			jend := lo.emitJmp()
			lo.patch(jf, lo.here())
			lo.blockStmt(*st.Else)
			lo.patch(jend, lo.here())
		} else {
			lo.patch(jf, lo.here())
		}

	case WhileStmt:
		head := lo.here()
		c := lo.expr(st.Cond)
		jf := lo.truthyJumpFalse(c)
		lf := &loopFrame{}
		lo.loops = append(lo.loops, lf)
		lo.blockStmt(st.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		lo.emit(opJmp, head, 0, 0, 0)
		end := lo.here()
		lo.patch(jf, end)
		for _, pc := range lf.breaks {
			lo.patch(pc, end)
		}
		for _, pc := range lf.continues {
			lo.patch(pc, head)
		}

	case ForStmt:
		lo.push()
		if st.Init != nil {
			lo.resetTmps()
			lo.stmtDiscard(st.Init)
		}
		head := lo.here()
		jf := -1
		if st.Cond != nil {
			lo.resetTmps()
			c := lo.expr(st.Cond)
			jf = lo.truthyJumpFalse(c)
		}
		// The post clause is lowered before the body, so diagnostics come in
		// source order, and its code is moved after the body. Its
		// temporaries may share registers with variables declared after it
		// (in the body or later in an enclosing scope): none of those is
		// live while the post clause runs, and each is set by its
		// declaration before it is read.
		var post []instr
		if st.Post != nil {
			lo.resetTmps()
			post = lo.detach(st.Post)
		}
		lf := &loopFrame{}
		lo.loops = append(lo.loops, lf)
		lo.blockStmt(st.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		postPos := lo.here()
		lo.attach(post)
		lo.emit(opJmp, head, 0, 0, 0)
		end := lo.here()
		lo.patch(jf, end)
		for _, pc := range lf.breaks {
			lo.patch(pc, end)
		}
		for _, pc := range lf.continues {
			lo.patch(pc, postPos)
		}
		lo.pop()

	case BreakStmt:
		pc := lo.emitJmp()
		if len(lo.loops) > 0 {
			lf := lo.loops[len(lo.loops)-1]
			lf.breaks = append(lf.breaks, pc)
		} else {
			lo.orphans = append(lo.orphans, pc)
		}

	case ContinueStmt:
		pc := lo.emitJmp()
		if len(lo.loops) > 0 {
			lf := lo.loops[len(lo.loops)-1]
			lf.continues = append(lf.continues, pc)
		} else {
			lo.orphans = append(lo.orphans, pc)
		}

	case StopStmt:
		lo.emit(opStop, 0, 0, 0, 0)

	case CoutStmt:
		lo.emit(opCoutClear, 0, 0, 0, 0)
		for _, a := range st.Args {
			v := lo.expr(a)
			switch v.cl {
			case clI:
				if v.kind == field.Bool {
					lo.emit(opCoutB, v.reg, 0, 0, 0)
				} else {
					lo.emit(opCoutI, v.reg, 0, 0, 0)
				}
			case clF:
				lo.emit(opCoutF, v.reg, 0, 0, 0)
			case clS:
				lo.emit(opCoutS, v.reg, 0, 0, 0)
			default:
				lo.emit(opCoutV, v.reg, 0, 0, 0)
			}
		}
		lo.emit(opCoutFlush, 0, 0, 0, 0)

	case ExprStmt:
		lo.expr(st.X)

	case Block:
		lo.blockStmt(st)

	default:
		panic(lowerFail{err: fmt.Errorf("lang: unhandled statement %T", s)})
	}
}

func (lo *lowerer) blockStmt(b Block) {
	lo.push()
	for _, s := range b.Stmts {
		lo.resetTmps()
		lo.stmt(s)
	}
	lo.pop()
}

// assign lowers `name op= expr`, including the timer form `t1 = now`.
func (lo *lowerer) assign(st AssignStmt) {
	ref := lo.resolve(st.Name)
	if ref.kind == vTimer {
		if st.Op != "=" {
			lo.failf(st.Tok, "timers only support plain assignment")
		}
		if id, ok := st.Val.(Ident); !ok || id.Name != "now" {
			lo.failf(st.Tok, "timers can only be assigned `now`")
		}
		lo.emit(opResetTimer, lo.p.timerConst(st.Name), 0, 0, 0)
		return
	}
	// The right side is lowered first, so its diagnostics precede the
	// target's. Reading the old value after it is unobservable: no
	// expression writes a scalar variable.
	v := lo.expr(st.Val)
	if st.Op != "=" {
		old := lo.readRef(st.Tok, st.Name, ref)
		if ref.kind != vSlot && ref.kind != vLocal {
			lo.failf(st.Tok, "cannot modify %q", st.Name)
		}
		v = lo.arithLower(st.Tok, st.Op[:1], old, v)
	}
	lo.writeVar(st.Tok, st.Name, ref, v)
}

func (lo *lowerer) incStmt(st IncStmt) {
	ref := lo.resolve(st.Name)
	old := lo.readRef(st.Tok, st.Name, ref)
	if ref.kind != vSlot && ref.kind != vLocal {
		lo.failf(st.Tok, "cannot modify %q", st.Name)
	}
	delta := int64(1)
	if st.Op == "--" {
		delta = -1
	}
	var nv lval
	switch old.cl {
	case clF:
		d := lo.tmp(clF)
		lo.emit(opLdF, d, lo.p.floatConst(float64(delta)), 0, 0)
		dst := lo.tmp(clF)
		lo.emit(opAddF, dst, old.reg, d, 0)
		nv = lval{cl: clF, kind: field.Float64, reg: dst}
	case clI:
		d := lo.tmp(clI)
		lo.emit(opLdI, d, lo.p.intConst(delta), 0, 0)
		dst := lo.tmp(clI)
		lo.emit(opAddI, dst, old.reg, d, 0)
		nv = lval{cl: clI, kind: field.Int64, reg: dst}
	case clS:
		// String payloads read as integer 0, so the increment is the delta.
		dst := lo.tmp(clI)
		lo.emit(opLdI, dst, lo.p.intConst(delta), 0, 0)
		nv = lval{cl: clI, kind: field.Int64, reg: dst}
	default:
		dst := lo.tmp(clV)
		lo.emit(opIncV, dst, old.reg, int32(delta), 0)
		nv = lval{cl: clV, kind: field.Any, reg: dst}
	}
	lo.writeVar(st.Tok, st.Name, ref, nv)
}

// writeVar stores v into a resolved variable with Convert(declared kind)
// semantics.
func (lo *lowerer) writeVar(tok Token, name string, ref lref, v lval) {
	switch ref.kind {
	case vSlot:
		lo.storeSlot(ref.slot, v)
	case vLocal:
		lo.storeLocal(ref.li, ref.typ, v)
	case vAge, vIndex:
		lo.failf(tok, "%q is read-only", name)
	case vArray:
		lo.failf(tok, "assign to array %q with put()", name)
	default:
		lo.failf(tok, "undefined variable %q", name)
	}
}

func (lo *lowerer) storeSlot(sl lslot, v lval) {
	if sl.cl == clV {
		bv := lo.toBoxed(v)
		lo.emit(opConvV, sl.reg, bv.reg, int32(sl.kind), 0)
		return
	}
	cv := lo.convert(v, sl.kind)
	lo.emitMov(sl.cl, sl.reg, cv.reg)
}

func (lo *lowerer) storeZero(sl lslot) {
	switch sl.cl {
	case clI:
		lo.emit(opLdI, sl.reg, lo.p.intConst(0), 0, 0)
	case clF:
		lo.emit(opLdF, sl.reg, lo.p.floatConst(0), 0, 0)
	case clS:
		lo.emit(opLdS, sl.reg, lo.p.strConst(""), 0, 0)
	default:
		lo.emit(opZeroV, sl.reg, int32(sl.kind), 0, 0)
	}
}

func (lo *lowerer) storeLocal(li int, typ field.Kind, v lval) {
	switch lo.localCl[li] {
	case clI:
		cv := lo.convert(v, typ)
		lo.emit(opStLI, int32(li), cv.reg, int32(typ), 0)
	case clF:
		cv := lo.convert(v, typ)
		lo.emit(opStLF, int32(li), cv.reg, int32(typ), 0)
	case clS:
		cv := lo.convert(v, typ)
		lo.emit(opStLS, int32(li), cv.reg, 0, 0)
	default:
		bv := lo.toBoxed(v)
		t := lo.tmp(clV)
		lo.emit(opConvV, t, bv.reg, int32(typ), 0)
		lo.emit(opStLV, int32(li), t, 0, 0)
	}
}

// readRef lowers a read of a resolved identifier.
func (lo *lowerer) readRef(tok Token, name string, ref lref) lval {
	switch ref.kind {
	case vSlot:
		// Slot registers are stable, so the expression aliases the register
		// directly; no statement can overwrite it mid-expression.
		return lval{cl: ref.slot.cl, kind: ref.slot.kind, reg: ref.slot.reg}
	case vLocal:
		switch lo.localCl[ref.li] {
		case clI:
			dst := lo.tmp(clI)
			lo.emit(opLdLI, dst, int32(ref.li), 0, 0)
			return lval{cl: clI, kind: ref.typ, reg: dst}
		case clF:
			dst := lo.tmp(clF)
			lo.emit(opLdLF, dst, int32(ref.li), 0, 0)
			return lval{cl: clF, kind: ref.typ, reg: dst}
		case clS:
			dst := lo.tmp(clS)
			lo.emit(opLdLS, dst, int32(ref.li), 0, 0)
			return lval{cl: clS, kind: field.String, reg: dst}
		default:
			dst := lo.tmp(clV)
			lo.emit(opLdLV, dst, int32(ref.li), 0, 0)
			return lval{cl: clV, kind: field.Any, reg: dst}
		}
	case vAge:
		dst := lo.tmp(clI)
		lo.emit(opLdAge, dst, 0, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case vIndex:
		dst := lo.tmp(clI)
		lo.emit(opLdIdx, dst, int32(ref.pos), 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case vEndl:
		dst := lo.tmp(clS)
		lo.emit(opLdS, dst, lo.p.strConst("\n"), 0, 0)
		return lval{cl: clS, kind: field.String, reg: dst}
	case vArray:
		lo.failf(tok, "array %q must be accessed with get()/put()/extent()", name)
	default:
		lo.failf(tok, "undefined variable %q", name)
	}
	panic("unreachable")
}

// ---- expressions ----

func (lo *lowerer) expr(x Expr) lval {
	switch ex := x.(type) {
	case IntLit:
		dst := lo.tmp(clI)
		lo.emit(opLdI, dst, lo.p.intConst(ex.V), 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case FloatLit:
		dst := lo.tmp(clF)
		lo.emit(opLdF, dst, lo.p.floatConst(ex.V), 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	case StrLit:
		dst := lo.tmp(clS)
		lo.emit(opLdS, dst, lo.p.strConst(ex.V), 0, 0)
		return lval{cl: clS, kind: field.String, reg: dst}
	case Ident:
		return lo.readRef(ex.Tok, ex.Name, lo.resolve(ex.Name))
	case UnExpr:
		return lo.unary(ex)
	case BinExpr:
		if ex.Op == "&&" || ex.Op == "||" {
			return lo.shortCircuit(ex)
		}
		l := lo.expr(ex.L)
		r := lo.expr(ex.R)
		return lo.arithLower(ex.Tok, ex.Op, l, r)
	case CallExpr:
		return lo.call(ex)
	}
	panic(lowerFail{err: fmt.Errorf("lang: unhandled expression %T", x)})
}

func (lo *lowerer) unary(ex UnExpr) lval {
	v := lo.expr(ex.X)
	if ex.Op == "!" {
		dst := lo.tmp(clI)
		switch v.cl {
		case clI:
			lo.emit(opNotI, dst, v.reg, 0, 0)
		case clF:
			lo.emit(opNotF, dst, v.reg, 0, 0)
		case clS:
			// Strings are always falsy (their integer payload is 0).
			lo.emit(opLdI, dst, lo.p.intConst(1), 0, 0)
		default:
			lo.emit(opNotV, dst, v.reg, 0, 0)
		}
		return lval{cl: clI, kind: field.Bool, reg: dst}
	}
	// Unary minus.
	switch v.cl {
	case clF:
		dst := lo.tmp(clF)
		lo.emit(opNegF, dst, v.reg, 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	case clI:
		dst := lo.tmp(clI)
		lo.emit(opNegI, dst, v.reg, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case clS:
		dst := lo.tmp(clI)
		lo.emit(opLdI, dst, lo.p.intConst(0), 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	default:
		dst := lo.tmp(clV)
		lo.emit(opNegV, dst, v.reg, 0, 0)
		return lval{cl: clV, kind: field.Any, reg: dst}
	}
}

// shortCircuit lowers && and ||; the result is always Bool.
func (lo *lowerer) shortCircuit(ex BinExpr) lval {
	dst := lo.tmp(clI)
	if ex.Op == "&&" {
		l := lo.expr(ex.L)
		jf := lo.truthyJumpFalse(l)
		r := lo.expr(ex.R)
		lo.boolInto(dst, r)
		jend := lo.emitJmp()
		lo.patch(jf, lo.here())
		lo.emit(opLdI, dst, lo.p.intConst(0), 0, 0)
		lo.patch(jend, lo.here())
	} else {
		l := lo.expr(ex.L)
		jt := lo.truthyJumpTrue(l)
		r := lo.expr(ex.R)
		lo.boolInto(dst, r)
		jend := lo.emitJmp()
		lo.patch(jt, lo.here())
		lo.emit(opLdI, dst, lo.p.intConst(1), 0, 0)
		lo.patch(jend, lo.here())
	}
	return lval{cl: clI, kind: field.Bool, reg: dst}
}

// truthyJumpFalse emits a jump taken when v is falsy and returns its pc for
// patching (-1 when the jump can never be taken).
func (lo *lowerer) truthyJumpFalse(v lval) int {
	switch v.cl {
	case clI:
		return lo.emit(opJzI, v.reg, 0, 0, 0)
	case clF:
		return lo.emit(opJzF, v.reg, 0, 0, 0)
	case clS:
		// Strings are always falsy: unconditional jump.
		return lo.emitJmp()
	default:
		return lo.emit(opJzV, v.reg, 0, 0, 0)
	}
}

// truthyJumpTrue emits a jump taken when v is truthy (-1 when impossible).
func (lo *lowerer) truthyJumpTrue(v lval) int {
	switch v.cl {
	case clI:
		return lo.emit(opJnzI, v.reg, 0, 0, 0)
	case clF:
		t := lo.tmp(clI)
		lo.emit(opBoolF, t, v.reg, 0, 0)
		return lo.emit(opJnzI, t, 0, 0, 0)
	case clS:
		return -1
	default:
		t := lo.tmp(clI)
		lo.emit(opBoolV, t, v.reg, 0, 0)
		return lo.emit(opJnzI, t, 0, 0, 0)
	}
}

// boolInto normalizes v to 0/1 in the int register dst.
func (lo *lowerer) boolInto(dst int32, v lval) {
	switch v.cl {
	case clI:
		lo.emit(opBoolI, dst, v.reg, 0, 0)
	case clF:
		lo.emit(opBoolF, dst, v.reg, 0, 0)
	case clS:
		lo.emit(opLdI, dst, lo.p.intConst(0), 0, 0)
	default:
		lo.emit(opBoolV, dst, v.reg, 0, 0)
	}
}

// ---- arithmetic ----

func cmpOpI(op string) opcode {
	switch op {
	case "==":
		return opEqI
	case "!=":
		return opNeI
	case "<":
		return opLtI
	case "<=":
		return opLeI
	case ">":
		return opGtI
	default:
		return opGeI
	}
}

func cmpOpF(op string) opcode {
	switch op {
	case "==":
		return opEqF
	case "!=":
		return opNeF
	case "<":
		return opLtF
	case "<=":
		return opLeF
	case ">":
		return opGtF
	default:
		return opGeF
	}
}

func isCmpOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// arithLower lowers a binary operator with arith()'s promotion rules: strings
// first (+, ==, != only), then float promotion, then int64. Any boxed operand
// routes through opArithV, which calls arith() itself at runtime.
func (lo *lowerer) arithLower(tok Token, op string, l, r lval) lval {
	if l.cl == clV || r.cl == clV {
		lb := lo.toBoxed(l)
		rb := lo.toBoxed(r)
		dst := lo.tmp(clV)
		lo.emit(opArithV, dst, lb.reg, rb.reg, lo.p.siteConst(op, tok))
		return lval{cl: clV, kind: field.Any, reg: dst}
	}
	if l.kind == field.String || r.kind == field.String {
		switch op {
		case "+":
			ls := lo.toStr(l)
			rs := lo.toStr(r)
			dst := lo.tmp(clS)
			lo.emit(opConcatS, dst, ls.reg, rs.reg, 0)
			return lval{cl: clS, kind: field.String, reg: dst}
		case "==", "!=":
			ls := lo.toStr(l)
			rs := lo.toStr(r)
			dst := lo.tmp(clI)
			if op == "==" {
				lo.emit(opEqS, dst, ls.reg, rs.reg, 0)
			} else {
				lo.emit(opNeS, dst, ls.reg, rs.reg, 0)
			}
			return lval{cl: clI, kind: field.Bool, reg: dst}
		default:
			return lo.emitRuntimeErr(errAt(tok, "operator %q not defined on strings", op))
		}
	}
	if l.kind.Float() || r.kind.Float() {
		la := lo.floatPayload(l)
		ra := lo.floatPayload(r)
		if isCmpOp(op) {
			dst := lo.tmp(clI)
			lo.emit(cmpOpF(op), dst, la.reg, ra.reg, 0)
			return lval{cl: clI, kind: field.Bool, reg: dst}
		}
		switch op {
		case "+", "-", "*":
			dst := lo.tmp(clF)
			var fop opcode
			switch op {
			case "+":
				fop = opAddF
			case "-":
				fop = opSubF
			default:
				fop = opMulF
			}
			lo.emit(fop, dst, la.reg, ra.reg, 0)
			return lval{cl: clF, kind: field.Float64, reg: dst}
		case "/":
			dst := lo.tmp(clF)
			lo.emit(opDivF, dst, la.reg, ra.reg, lo.p.errConst(errAt(tok, "division by zero")))
			return lval{cl: clF, kind: field.Float64, reg: dst}
		case "%":
			return lo.emitRuntimeErr(errAt(tok, "%% is not defined on floats"))
		default:
			return lo.emitRuntimeErr(errAt(tok, "unknown operator %q", op))
		}
	}
	// Integer path: both operands are int-class, payloads already Int64().
	if isCmpOp(op) {
		dst := lo.tmp(clI)
		lo.emit(cmpOpI(op), dst, l.reg, r.reg, 0)
		return lval{cl: clI, kind: field.Bool, reg: dst}
	}
	dst := lo.tmp(clI)
	switch op {
	case "+":
		lo.emit(opAddI, dst, l.reg, r.reg, 0)
	case "-":
		lo.emit(opSubI, dst, l.reg, r.reg, 0)
	case "*":
		lo.emit(opMulI, dst, l.reg, r.reg, 0)
	case "/":
		lo.emit(opDivI, dst, l.reg, r.reg, lo.p.errConst(errAt(tok, "division by zero")))
	case "%":
		lo.emit(opModI, dst, l.reg, r.reg, lo.p.errConst(errAt(tok, "modulo by zero")))
	default:
		return lo.emitRuntimeErr(errAt(tok, "unknown operator %q", op))
	}
	return lval{cl: clI, kind: field.Int64, reg: dst}
}

// ---- conversions ----

// convert produces v coerced to kind k (Value.Convert semantics) in k's
// register class. clV targets are handled by the callers via opConvV.
func (lo *lowerer) convert(v lval, k field.Kind) lval {
	if v.cl != clV && v.kind == k {
		return v
	}
	switch k {
	case field.Bool:
		dst := lo.tmp(clI)
		lo.boolIntoReg(dst, v)
		return lval{cl: clI, kind: field.Bool, reg: dst}
	case field.Int64:
		p := lo.intPayload(v)
		return lval{cl: clI, kind: k, reg: p.reg}
	case field.Int32:
		p := lo.intPayload(v)
		dst := lo.tmp(clI)
		lo.emit(opTrunc32, dst, p.reg, 0, 0)
		return lval{cl: clI, kind: k, reg: dst}
	case field.Uint8:
		p := lo.intPayload(v)
		dst := lo.tmp(clI)
		lo.emit(opTruncU8, dst, p.reg, 0, 0)
		return lval{cl: clI, kind: k, reg: dst}
	case field.Float32, field.Float64:
		p := lo.floatPayload(v)
		return lval{cl: clF, kind: k, reg: p.reg}
	case field.String:
		s := lo.toStr(v)
		return lval{cl: clS, kind: field.String, reg: s.reg}
	}
	panic(lowerFail{err: fmt.Errorf("lang: cannot convert to kind %v in registers", k)})
}

func (lo *lowerer) boolIntoReg(dst int32, v lval) {
	switch v.cl {
	case clI:
		lo.emit(opBoolI, dst, v.reg, 0, 0)
	case clF:
		lo.emit(opBoolF, dst, v.reg, 0, 0)
	case clS:
		lo.emit(opLdI, dst, lo.p.intConst(0), 0, 0)
	default:
		lo.emit(opBoolV, dst, v.reg, 0, 0)
	}
}

// intPayload produces Value.Int64() of v in an int register.
func (lo *lowerer) intPayload(v lval) lval {
	switch v.cl {
	case clI:
		return v
	case clF:
		dst := lo.tmp(clI)
		lo.emit(opF2I, dst, v.reg, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	case clS:
		dst := lo.tmp(clI)
		lo.emit(opLdI, dst, lo.p.intConst(0), 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	default:
		dst := lo.tmp(clI)
		lo.emit(opUnboxVI, dst, v.reg, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}
	}
}

// floatPayload produces Value.Float64() of v in a float register.
func (lo *lowerer) floatPayload(v lval) lval {
	switch v.cl {
	case clF:
		return v
	case clI:
		dst := lo.tmp(clF)
		lo.emit(opI2F, dst, v.reg, 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	case clS:
		dst := lo.tmp(clF)
		lo.emit(opLdF, dst, lo.p.floatConst(0), 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	default:
		dst := lo.tmp(clF)
		lo.emit(opUnboxVF, dst, v.reg, 0, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	}
}

// toStr produces Value.String() of v in a string register.
func (lo *lowerer) toStr(v lval) lval {
	switch v.cl {
	case clS:
		return v
	case clI:
		dst := lo.tmp(clS)
		if v.kind == field.Bool {
			lo.emit(opB2S, dst, v.reg, 0, 0)
		} else {
			lo.emit(opI2S, dst, v.reg, 0, 0)
		}
		return lval{cl: clS, kind: field.String, reg: dst}
	case clF:
		dst := lo.tmp(clS)
		lo.emit(opF2S, dst, v.reg, 0, 0)
		return lval{cl: clS, kind: field.String, reg: dst}
	default:
		dst := lo.tmp(clS)
		lo.emit(opV2S, dst, v.reg, 0, 0)
		return lval{cl: clS, kind: field.String, reg: dst}
	}
}

// toBoxed produces v as a boxed field.Value in a V register, preserving its
// static kind exactly (payloads are canonical, so no conversion is applied).
func (lo *lowerer) toBoxed(v lval) lval {
	switch v.cl {
	case clV:
		return v
	case clI:
		dst := lo.tmp(clV)
		lo.emit(opBoxI, dst, v.reg, int32(v.kind), 0)
		return lval{cl: clV, kind: v.kind, reg: dst}
	case clF:
		dst := lo.tmp(clV)
		lo.emit(opBoxF, dst, v.reg, int32(v.kind), 0)
		return lval{cl: clV, kind: v.kind, reg: dst}
	default:
		dst := lo.tmp(clV)
		lo.emit(opBoxS, dst, v.reg, int32(v.kind), 0)
		return lval{cl: clV, kind: v.kind, reg: dst}
	}
}

// ---- builtin calls ----

func (lo *lowerer) call(ex CallExpr) lval {
	argIdent := func(i int) string {
		if i >= len(ex.Args) {
			lo.failf(ex.Tok, "%s: missing argument %d", ex.Name, i+1)
		}
		id, ok := ex.Args[i].(Ident)
		if !ok {
			lo.failf(ex.Tok, "%s: argument %d must be a name", ex.Name, i+1)
		}
		return id.Name
	}
	wantArgs := func(n int) {
		if len(ex.Args) != n {
			lo.failf(ex.Tok, "%s expects %d argument(s), got %d", ex.Name, n, len(ex.Args))
		}
	}

	switch ex.Name {
	case "put": // put(arr, value, idx...)
		name := argIdent(0)
		ref := lo.resolve(name)
		if ref.kind != vArray {
			lo.failf(ex.Tok, "put: %q is not an array local", name)
		}
		if len(ex.Args) < 3 {
			lo.failf(ex.Tok, "put expects (array, value, index...)")
		}
		val := lo.expr(ex.Args[1])
		n := len(ex.Args) - 2
		base := lo.tmpBlockI(n)
		for i, a := range ex.Args[2:] {
			iv := lo.expr(a)
			p := lo.intPayload(iv)
			lo.emitMov(clI, base+int32(i), p.reg)
		}
		switch lo.localCl[ref.li] {
		case clI:
			// The register carries the payload; FlatSetInt applies the same
			// width truncation as slab.set, but Bool normalization needs the
			// truth value, not the integer payload.
			var pv lval
			if ref.typ == field.Bool {
				pv = lo.convert(val, field.Bool)
			} else {
				pv = lo.intPayload(val)
			}
			lo.emit(opPutI, int32(ref.li), pv.reg, base, int32(n))
		case clF:
			pv := lo.floatPayload(val)
			lo.emit(opPutF, int32(ref.li), pv.reg, base, int32(n))
		default:
			bv := lo.toBoxed(val)
			lo.emit(opPutV, int32(ref.li), bv.reg, base, int32(n))
		}
		return val

	case "get": // get(arr, idx...)
		name := argIdent(0)
		ref := lo.resolve(name)
		if ref.kind != vArray {
			lo.failf(ex.Tok, "get: %q is not an array local", name)
		}
		if len(ex.Args) < 2 {
			lo.failf(ex.Tok, "get expects (array, index...)")
		}
		n := len(ex.Args) - 1
		base := lo.tmpBlockI(n)
		for i, a := range ex.Args[1:] {
			iv := lo.expr(a)
			p := lo.intPayload(iv)
			lo.emitMov(clI, base+int32(i), p.reg)
		}
		switch lo.localCl[ref.li] {
		case clI:
			dst := lo.tmp(clI)
			lo.emit(opGetI, dst, int32(ref.li), base, int32(n))
			return lval{cl: clI, kind: ref.typ, reg: dst}
		case clF:
			dst := lo.tmp(clF)
			lo.emit(opGetF, dst, int32(ref.li), base, int32(n))
			return lval{cl: clF, kind: ref.typ, reg: dst}
		default:
			dst := lo.tmp(clV)
			lo.emit(opGetV, dst, int32(ref.li), base, int32(n))
			return lval{cl: clV, kind: field.Any, reg: dst}
		}

	case "extent": // extent(arr, dim)
		name := argIdent(0)
		ref := lo.resolve(name)
		if ref.kind != vArray {
			lo.failf(ex.Tok, "extent: %q is not an array local", name)
		}
		wantArgs(2)
		dim := lo.expr(ex.Args[1])
		p := lo.intPayload(dim)
		dst := lo.tmp(clI)
		lo.emit(opExtent, dst, int32(ref.li), p.reg, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}

	case "sqrt", "floor", "cos", "sin":
		wantArgs(1)
		arg := lo.expr(ex.Args[0])
		fa := lo.floatPayload(arg)
		dst := lo.tmp(clF)
		switch ex.Name {
		case "sqrt":
			lo.emit(opSqrtF, dst, fa.reg, 0, lo.p.errConst(errAt(ex.Tok, "sqrt of negative value")))
		case "floor":
			lo.emit(opFloorF, dst, fa.reg, 0, 0)
		case "cos":
			lo.emit(opCosF, dst, fa.reg, 0, 0)
		default:
			lo.emit(opSinF, dst, fa.reg, 0, 0)
		}
		return lval{cl: clF, kind: field.Float64, reg: dst}

	case "abs":
		wantArgs(1)
		arg := lo.expr(ex.Args[0])
		switch arg.cl {
		case clV:
			dst := lo.tmp(clV)
			lo.emit(opAbsV, dst, arg.reg, 0, 0)
			return lval{cl: clV, kind: field.Any, reg: dst}
		case clF:
			dst := lo.tmp(clF)
			lo.emit(opAbsF, dst, arg.reg, 0, 0)
			return lval{cl: clF, kind: field.Float64, reg: dst}
		case clS:
			// abs(string): integer payload 0.
			dst := lo.tmp(clI)
			lo.emit(opLdI, dst, lo.p.intConst(0), 0, 0)
			return lval{cl: clI, kind: field.Int64, reg: dst}
		default:
			dst := lo.tmp(clI)
			lo.emit(opAbsI, dst, arg.reg, 0, 0)
			return lval{cl: clI, kind: field.Int64, reg: dst}
		}

	case "min", "max":
		wantArgs(2)
		a := lo.expr(ex.Args[0])
		b := lo.expr(ex.Args[1])
		return lo.minMax(ex.Name, a, b)

	case "pow":
		wantArgs(2)
		a := lo.expr(ex.Args[0])
		b := lo.expr(ex.Args[1])
		fa := lo.floatPayload(a)
		fb := lo.floatPayload(b)
		dst := lo.tmp(clF)
		lo.emit(opPowF, dst, fa.reg, fb.reg, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}

	case "now":
		wantArgs(0)
		dst := lo.tmp(clI)
		lo.emit(opNow, dst, 0, 0, 0)
		return lval{cl: clI, kind: field.Int64, reg: dst}

	case "expired": // expired(timer, ms)
		name := argIdent(0)
		if lo.resolve(name).kind != vTimer {
			lo.failf(ex.Tok, "expired: %q is not a declared timer", name)
		}
		wantArgs(2)
		ms := lo.expr(ex.Args[1])
		p := lo.intPayload(ms)
		dst := lo.tmp(clI)
		lo.emit(opExpired, dst, lo.p.timerConst(name), p.reg, 0)
		return lval{cl: clI, kind: field.Bool, reg: dst}

	case "reset": // reset(timer)
		name := argIdent(0)
		if lo.resolve(name).kind != vTimer {
			lo.failf(ex.Tok, "reset: %q is not a declared timer", name)
		}
		wantArgs(1)
		lo.emit(opResetTimer, lo.p.timerConst(name), 0, 0, 0)
		dst := lo.tmp(clI)
		lo.emit(opLdI, dst, lo.p.intConst(1), 0, 0)
		return lval{cl: clI, kind: field.Bool, reg: dst}
	}
	lo.failf(ex.Tok, "unknown function %q", ex.Name)
	panic("unreachable")
}

// minMax lowers min/max with the language's kind rules: float promotion if
// either side is floating, otherwise the raw winning operand. The raw-operand
// int path returns the operand itself (kind included), so mixed static kinds
// must go through the boxed helper.
func (lo *lowerer) minMax(name string, a, b lval) lval {
	vop, iop, fop := opMinV, opMinI, opMinF
	if name == "max" {
		vop, iop, fop = opMaxV, opMaxI, opMaxF
	}
	if a.cl == clV || b.cl == clV {
		ab := lo.toBoxed(a)
		bb := lo.toBoxed(b)
		dst := lo.tmp(clV)
		lo.emit(vop, dst, ab.reg, bb.reg, 0)
		return lval{cl: clV, kind: field.Any, reg: dst}
	}
	if a.cl == clF || b.cl == clF {
		fa := lo.floatPayload(a)
		fb := lo.floatPayload(b)
		dst := lo.tmp(clF)
		lo.emit(fop, dst, fa.reg, fb.reg, 0)
		return lval{cl: clF, kind: field.Float64, reg: dst}
	}
	if a.cl == clS && b.cl == clS {
		// Both payloads are 0, so the comparison never favors the first
		// operand: the result is always the second.
		return b
	}
	if a.cl == clI && b.cl == clI && a.kind == b.kind {
		dst := lo.tmp(clI)
		lo.emit(iop, dst, a.reg, b.reg, 0)
		return lval{cl: clI, kind: a.kind, reg: dst}
	}
	// Mixed int/string kinds: the winning operand's kind is data-dependent.
	ab := lo.toBoxed(a)
	bb := lo.toBoxed(b)
	dst := lo.tmp(clV)
	lo.emit(vop, dst, ab.reg, bb.reg, 0)
	return lval{cl: clV, kind: field.Any, reg: dst}
}
