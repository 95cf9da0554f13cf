package lang

// The closure interpreter: the kernel-body back-end Compile used before the
// bytecode lowering, kept as the oracle of the differential tests. It walks
// a tree of Go closures with every operand boxed in a field.Value, so it is
// slow but plainly correct; Compile must accept exactly the programs it
// accepts, report the same first error, and run them to the same fields,
// output and runtime errors.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/field"
)

// compileClosure compiles src exactly as Compile does, except that every
// kernel body is built by the closure interpreter.
func compileClosure(name, src string) (*core.Program, error) {
	return compile(name, src, func(k *KernelDef, timers map[string]bool, _ map[string]FieldDecl) (func(*core.Ctx) error, error) {
		return compileKernelBody(k, timers)
	})
}

// ctrl is loop-control flow state threaded through statement closures.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
)

type env struct {
	ctx   *core.Ctx
	slots []field.Value
}

type exprFn func(*env) (field.Value, error)
type stmtFn func(*env) (ctrl, error)

type binding struct {
	kind varKind
	slot int
	typ  field.Kind // declared kind for vSlot/vLocal
}

type kcompiler struct {
	k      *KernelDef
	timers map[string]bool
	scopes []map[string]binding
	nslots int
}

func compileKernelBody(k *KernelDef, timers map[string]bool) (func(*core.Ctx) error, error) {
	kc := &kcompiler{k: k, timers: timers}
	kc.push()
	var stmts []stmtFn
	for _, blk := range k.Blocks {
		for _, s := range blk.Stmts {
			fn, err := kc.stmt(s)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, fn)
		}
	}
	kc.pop()
	nslots := kc.nslots
	return func(ctx *core.Ctx) error {
		e := &env{ctx: ctx, slots: make([]field.Value, nslots)}
		for _, fn := range stmts {
			if _, err := fn(e); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (kc *kcompiler) push() { kc.scopes = append(kc.scopes, map[string]binding{}) }
func (kc *kcompiler) pop()  { kc.scopes = kc.scopes[:len(kc.scopes)-1] }

func (kc *kcompiler) declare(tok Token, name string, typ field.Kind) (binding, error) {
	top := kc.scopes[len(kc.scopes)-1]
	if _, dup := top[name]; dup {
		return binding{}, errAt(tok, "variable %q redeclared in the same scope", name)
	}
	bd := binding{kind: vSlot, slot: kc.nslots, typ: typ}
	kc.nslots++
	top[name] = bd
	return bd, nil
}

// resolve classifies an identifier: innermost block scope first, then kernel
// locals, age/index variables, timers and endl.
func (kc *kcompiler) resolve(name string) binding {
	for i := len(kc.scopes) - 1; i >= 0; i-- {
		if bd, ok := kc.scopes[i][name]; ok {
			return bd
		}
	}
	for _, l := range kc.k.Locals {
		if l.Name == name {
			if l.Rank > 0 {
				return binding{kind: vArray, typ: l.Kind}
			}
			return binding{kind: vLocal, typ: l.Kind}
		}
	}
	if name == kc.k.AgeVar && name != "" {
		return binding{kind: vAge}
	}
	for _, iv := range kc.k.Indexes {
		if iv == name {
			return binding{kind: vIndex}
		}
	}
	if kc.timers[name] {
		return binding{kind: vTimer}
	}
	if name == "endl" {
		return binding{kind: vEndl}
	}
	return binding{kind: vUnknown}
}

func (kc *kcompiler) stmt(s Stmt) (stmtFn, error) {
	switch st := s.(type) {
	case DeclStmt:
		var init exprFn
		if st.Init != nil {
			var err error
			init, err = kc.expr(st.Init)
			if err != nil {
				return nil, err
			}
		}
		bd, err := kc.declare(st.Tok, st.Name, st.Kind)
		if err != nil {
			return nil, err
		}
		slot, typ := bd.slot, bd.typ
		return func(e *env) (ctrl, error) {
			v := field.Zero(typ)
			if init != nil {
				iv, err := init(e)
				if err != nil {
					return ctrlNone, err
				}
				v = iv.Convert(typ)
			}
			e.slots[slot] = v
			return ctrlNone, nil
		}, nil

	case AssignStmt:
		return kc.assign(st)

	case IncStmt:
		delta := int64(1)
		if st.Op == "--" {
			delta = -1
		}
		return kc.rmw(st.Tok, st.Name, func(v field.Value) (field.Value, error) {
			if v.Kind().Float() {
				return field.Float64Val(v.Float64() + float64(delta)), nil
			}
			return field.Int64Val(v.Int64() + delta), nil
		})

	case IfStmt:
		cond, err := kc.expr(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := kc.block(st.Then)
		if err != nil {
			return nil, err
		}
		var els stmtFn
		if st.Else != nil {
			els, err = kc.block(*st.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(e *env) (ctrl, error) {
			c, err := cond(e)
			if err != nil {
				return ctrlNone, err
			}
			if c.Bool() {
				return then(e)
			}
			if els != nil {
				return els(e)
			}
			return ctrlNone, nil
		}, nil

	case WhileStmt:
		cond, err := kc.expr(st.Cond)
		if err != nil {
			return nil, err
		}
		body, err := kc.block(st.Body)
		if err != nil {
			return nil, err
		}
		return loopFn(nil, cond, nil, body), nil

	case ForStmt:
		kc.push()
		var init, post stmtFn
		var err error
		if st.Init != nil {
			init, err = kc.stmt(st.Init)
			if err != nil {
				return nil, err
			}
		}
		var cond exprFn
		if st.Cond != nil {
			cond, err = kc.expr(st.Cond)
			if err != nil {
				return nil, err
			}
		}
		if st.Post != nil {
			post, err = kc.stmt(st.Post)
			if err != nil {
				return nil, err
			}
		}
		body, err := kc.block(st.Body)
		if err != nil {
			return nil, err
		}
		kc.pop()
		return loopFn(init, cond, post, body), nil

	case BreakStmt:
		return func(*env) (ctrl, error) { return ctrlBreak, nil }, nil
	case ContinueStmt:
		return func(*env) (ctrl, error) { return ctrlContinue, nil }, nil
	case StopStmt:
		return func(e *env) (ctrl, error) {
			e.ctx.Stop()
			return ctrlNone, nil
		}, nil

	case CoutStmt:
		var args []exprFn
		for _, a := range st.Args {
			fn, err := kc.expr(a)
			if err != nil {
				return nil, err
			}
			args = append(args, fn)
		}
		return func(e *env) (ctrl, error) {
			var sb []byte
			for _, fn := range args {
				v, err := fn(e)
				if err != nil {
					return ctrlNone, err
				}
				sb = append(sb, v.String()...)
			}
			e.ctx.Printf("%s", sb)
			return ctrlNone, nil
		}, nil

	case ExprStmt:
		fn, err := kc.expr(st.X)
		if err != nil {
			return nil, err
		}
		return func(e *env) (ctrl, error) {
			_, err := fn(e)
			return ctrlNone, err
		}, nil

	case Block:
		return kc.block(st)
	}
	return nil, fmt.Errorf("lang: unhandled statement %T", s)
}

func (kc *kcompiler) block(b Block) (stmtFn, error) {
	kc.push()
	defer kc.pop()
	var stmts []stmtFn
	for _, s := range b.Stmts {
		fn, err := kc.stmt(s)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, fn)
	}
	return func(e *env) (ctrl, error) {
		for _, fn := range stmts {
			c, err := fn(e)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	}, nil
}

func loopFn(init stmtFn, cond exprFn, post stmtFn, body stmtFn) stmtFn {
	return func(e *env) (ctrl, error) {
		if init != nil {
			if _, err := init(e); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if cond != nil {
				c, err := cond(e)
				if err != nil {
					return ctrlNone, err
				}
				if !c.Bool() {
					return ctrlNone, nil
				}
			}
			c, err := body(e)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if post != nil {
				if _, err := post(e); err != nil {
					return ctrlNone, err
				}
			}
		}
	}
}

// assign handles `name op= expr`, including the timer form `t1 = now`.
func (kc *kcompiler) assign(st AssignStmt) (stmtFn, error) {
	bd := kc.resolve(st.Name)
	if bd.kind == vTimer {
		if st.Op != "=" {
			return nil, errAt(st.Tok, "timers only support plain assignment")
		}
		if id, ok := st.Val.(Ident); !ok || id.Name != "now" {
			return nil, errAt(st.Tok, "timers can only be assigned `now`")
		}
		name := st.Name
		return func(e *env) (ctrl, error) {
			e.ctx.ResetTimer(name)
			return ctrlNone, nil
		}, nil
	}
	val, err := kc.expr(st.Val)
	if err != nil {
		return nil, err
	}
	if st.Op == "=" {
		return kc.write(st.Tok, st.Name, val)
	}
	op := st.Op[:1] // "+=" -> "+"
	tok := st.Tok
	return kc.rmw(st.Tok, st.Name, func(old field.Value) (field.Value, error) {
		return field.Value{}, nil // replaced below
	}, func(e *env) (field.Value, error) {
		return val(e)
	}, op, tok)
}

// write compiles an assignment of the evaluated expression to a variable.
func (kc *kcompiler) write(tok Token, name string, val exprFn) (stmtFn, error) {
	bd := kc.resolve(name)
	switch bd.kind {
	case vSlot:
		slot, typ := bd.slot, bd.typ
		return func(e *env) (ctrl, error) {
			v, err := val(e)
			if err != nil {
				return ctrlNone, err
			}
			e.slots[slot] = v.Convert(typ)
			return ctrlNone, nil
		}, nil
	case vLocal:
		typ := bd.typ
		return func(e *env) (ctrl, error) {
			v, err := val(e)
			if err != nil {
				return ctrlNone, err
			}
			e.ctx.Set(name, v.Convert(typ))
			return ctrlNone, nil
		}, nil
	case vAge, vIndex:
		return nil, errAt(tok, "%q is read-only", name)
	case vArray:
		return nil, errAt(tok, "assign to array %q with put()", name)
	default:
		return nil, errAt(tok, "undefined variable %q", name)
	}
}

// rmw compiles a read-modify-write. Two call shapes: with a pure transform
// (IncStmt), or with (valFn, op, tok) for compound assignment.
func (kc *kcompiler) rmw(tok Token, name string, transform func(field.Value) (field.Value, error), extra ...any) (stmtFn, error) {
	var valFn exprFn
	var op string
	if len(extra) == 3 {
		valFn = extra[0].(func(*env) (field.Value, error))
		op = extra[1].(string)
		tok = extra[2].(Token)
	}
	bd := kc.resolve(name)
	read, err := kc.readVar(tok, name, bd)
	if err != nil {
		return nil, err
	}
	apply := func(e *env, old field.Value) (field.Value, error) {
		if valFn == nil {
			return transform(old)
		}
		rhs, err := valFn(e)
		if err != nil {
			return field.Value{}, err
		}
		return arith(tok, op, old, rhs)
	}
	switch bd.kind {
	case vSlot:
		slot, typ := bd.slot, bd.typ
		return func(e *env) (ctrl, error) {
			nv, err := apply(e, e.slots[slot])
			if err != nil {
				return ctrlNone, err
			}
			e.slots[slot] = nv.Convert(typ)
			return ctrlNone, nil
		}, nil
	case vLocal:
		typ := bd.typ
		return func(e *env) (ctrl, error) {
			old, err := read(e)
			if err != nil {
				return ctrlNone, err
			}
			nv, err := apply(e, old)
			if err != nil {
				return ctrlNone, err
			}
			e.ctx.Set(name, nv.Convert(typ))
			return ctrlNone, nil
		}, nil
	default:
		return nil, errAt(tok, "cannot modify %q", name)
	}
}

func (kc *kcompiler) readVar(tok Token, name string, bd binding) (exprFn, error) {
	switch bd.kind {
	case vSlot:
		slot := bd.slot
		return func(e *env) (field.Value, error) { return e.slots[slot], nil }, nil
	case vLocal:
		return func(e *env) (field.Value, error) { return e.ctx.Get(name), nil }, nil
	case vAge:
		return func(e *env) (field.Value, error) { return field.Int64Val(int64(e.ctx.Age())), nil }, nil
	case vIndex:
		return func(e *env) (field.Value, error) { return field.Int64Val(int64(e.ctx.Index(name))), nil }, nil
	case vEndl:
		return func(*env) (field.Value, error) { return field.StringVal("\n"), nil }, nil
	case vArray:
		return nil, errAt(tok, "array %q must be accessed with get()/put()/extent()", name)
	default:
		return nil, errAt(tok, "undefined variable %q", name)
	}
}

func (kc *kcompiler) expr(x Expr) (exprFn, error) {
	switch ex := x.(type) {
	case IntLit:
		v := field.Int64Val(ex.V)
		return func(*env) (field.Value, error) { return v, nil }, nil
	case FloatLit:
		v := field.Float64Val(ex.V)
		return func(*env) (field.Value, error) { return v, nil }, nil
	case StrLit:
		v := field.StringVal(ex.V)
		return func(*env) (field.Value, error) { return v, nil }, nil
	case Ident:
		return kc.readVar(ex.Tok, ex.Name, kc.resolve(ex.Name))
	case UnExpr:
		sub, err := kc.expr(ex.X)
		if err != nil {
			return nil, err
		}
		op := ex.Op
		return func(e *env) (field.Value, error) {
			v, err := sub(e)
			if err != nil {
				return field.Value{}, err
			}
			if op == "!" {
				return field.BoolVal(!v.Bool()), nil
			}
			if v.Kind().Float() {
				return field.Float64Val(-v.Float64()), nil
			}
			return field.Int64Val(-v.Int64()), nil
		}, nil
	case BinExpr:
		l, err := kc.expr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := kc.expr(ex.R)
		if err != nil {
			return nil, err
		}
		op, tok := ex.Op, ex.Tok
		if op == "&&" || op == "||" {
			return func(e *env) (field.Value, error) {
				lv, err := l(e)
				if err != nil {
					return field.Value{}, err
				}
				if op == "&&" && !lv.Bool() {
					return field.BoolVal(false), nil
				}
				if op == "||" && lv.Bool() {
					return field.BoolVal(true), nil
				}
				rv, err := r(e)
				if err != nil {
					return field.Value{}, err
				}
				return field.BoolVal(rv.Bool()), nil
			}, nil
		}
		return func(e *env) (field.Value, error) {
			lv, err := l(e)
			if err != nil {
				return field.Value{}, err
			}
			rv, err := r(e)
			if err != nil {
				return field.Value{}, err
			}
			return arith(tok, op, lv, rv)
		}, nil
	case CallExpr:
		return kc.call(ex)
	}
	return nil, fmt.Errorf("lang: unhandled expression %T", x)
}

// call compiles a builtin call.
func (kc *kcompiler) call(ex CallExpr) (exprFn, error) {
	argIdent := func(i int) (string, error) {
		if i >= len(ex.Args) {
			return "", errAt(ex.Tok, "%s: missing argument %d", ex.Name, i+1)
		}
		id, ok := ex.Args[i].(Ident)
		if !ok {
			return "", errAt(ex.Tok, "%s: argument %d must be a name", ex.Name, i+1)
		}
		return id.Name, nil
	}
	compileArgs := func(from int) ([]exprFn, error) {
		var fns []exprFn
		for _, a := range ex.Args[from:] {
			fn, err := kc.expr(a)
			if err != nil {
				return nil, err
			}
			fns = append(fns, fn)
		}
		return fns, nil
	}
	wantArgs := func(n int) error {
		if len(ex.Args) != n {
			return errAt(ex.Tok, "%s expects %d argument(s), got %d", ex.Name, n, len(ex.Args))
		}
		return nil
	}

	switch ex.Name {
	case "put": // put(arr, value, idx...)
		name, err := argIdent(0)
		if err != nil {
			return nil, err
		}
		if kc.resolve(name).kind != vArray {
			return nil, errAt(ex.Tok, "put: %q is not an array local", name)
		}
		if len(ex.Args) < 3 {
			return nil, errAt(ex.Tok, "put expects (array, value, index...)")
		}
		args, err := compileArgs(1)
		if err != nil {
			return nil, err
		}
		return func(e *env) (field.Value, error) {
			vals := make([]field.Value, len(args))
			for i, fn := range args {
				var err error
				if vals[i], err = fn(e); err != nil {
					return field.Value{}, err
				}
			}
			idx := make([]int, len(vals)-1)
			for i, v := range vals[1:] {
				idx[i] = int(v.Int64())
			}
			e.ctx.Array(name).Put(vals[0], idx...)
			return vals[0], nil
		}, nil

	case "get": // get(arr, idx...)
		name, err := argIdent(0)
		if err != nil {
			return nil, err
		}
		if kc.resolve(name).kind != vArray {
			return nil, errAt(ex.Tok, "get: %q is not an array local", name)
		}
		if len(ex.Args) < 2 {
			return nil, errAt(ex.Tok, "get expects (array, index...)")
		}
		args, err := compileArgs(1)
		if err != nil {
			return nil, err
		}
		return func(e *env) (field.Value, error) {
			idx := make([]int, len(args))
			for i, fn := range args {
				v, err := fn(e)
				if err != nil {
					return field.Value{}, err
				}
				idx[i] = int(v.Int64())
			}
			return e.ctx.Array(name).At(idx...), nil
		}, nil

	case "extent": // extent(arr, dim)
		name, err := argIdent(0)
		if err != nil {
			return nil, err
		}
		if kc.resolve(name).kind != vArray {
			return nil, errAt(ex.Tok, "extent: %q is not an array local", name)
		}
		if err := wantArgs(2); err != nil {
			return nil, err
		}
		dim, err := kc.expr(ex.Args[1])
		if err != nil {
			return nil, err
		}
		return func(e *env) (field.Value, error) {
			d, err := dim(e)
			if err != nil {
				return field.Value{}, err
			}
			return field.Int64Val(int64(e.ctx.Array(name).Extent(int(d.Int64())))), nil
		}, nil

	case "sqrt", "abs", "floor", "cos", "sin":
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		arg, err := kc.expr(ex.Args[0])
		if err != nil {
			return nil, err
		}
		name, tok := ex.Name, ex.Tok
		return func(e *env) (field.Value, error) {
			v, err := arg(e)
			if err != nil {
				return field.Value{}, err
			}
			switch name {
			case "sqrt":
				if v.Float64() < 0 {
					return field.Value{}, errAt(tok, "sqrt of negative value")
				}
				return field.Float64Val(math.Sqrt(v.Float64())), nil
			case "floor":
				return field.Float64Val(math.Floor(v.Float64())), nil
			case "cos":
				return field.Float64Val(math.Cos(v.Float64())), nil
			case "sin":
				return field.Float64Val(math.Sin(v.Float64())), nil
			default: // abs
				if v.Kind().Float() {
					return field.Float64Val(math.Abs(v.Float64())), nil
				}
				i := v.Int64()
				if i < 0 {
					i = -i
				}
				return field.Int64Val(i), nil
			}
		}, nil

	case "min", "max", "pow":
		if err := wantArgs(2); err != nil {
			return nil, err
		}
		args, err := compileArgs(0)
		if err != nil {
			return nil, err
		}
		name := ex.Name
		return func(e *env) (field.Value, error) {
			a, err := args[0](e)
			if err != nil {
				return field.Value{}, err
			}
			b, err := args[1](e)
			if err != nil {
				return field.Value{}, err
			}
			switch name {
			case "pow":
				return field.Float64Val(math.Pow(a.Float64(), b.Float64())), nil
			case "min":
				if a.Kind().Float() || b.Kind().Float() {
					return field.Float64Val(math.Min(a.Float64(), b.Float64())), nil
				}
				if a.Int64() < b.Int64() {
					return a, nil
				}
				return b, nil
			default: // max
				if a.Kind().Float() || b.Kind().Float() {
					return field.Float64Val(math.Max(a.Float64(), b.Float64())), nil
				}
				if a.Int64() > b.Int64() {
					return a, nil
				}
				return b, nil
			}
		}, nil

	case "now": // milliseconds on the program clock
		if err := wantArgs(0); err != nil {
			return nil, err
		}
		return func(e *env) (field.Value, error) {
			return field.Int64Val(e.ctx.Now().UnixMilli()), nil
		}, nil

	case "expired": // expired(timer, ms)
		name, err := argIdent(0)
		if err != nil {
			return nil, err
		}
		if kc.resolve(name).kind != vTimer {
			return nil, errAt(ex.Tok, "expired: %q is not a declared timer", name)
		}
		if err := wantArgs(2); err != nil {
			return nil, err
		}
		ms, err := kc.expr(ex.Args[1])
		if err != nil {
			return nil, err
		}
		return func(e *env) (field.Value, error) {
			d, err := ms(e)
			if err != nil {
				return field.Value{}, err
			}
			exp, err := e.ctx.Expired(name, time.Duration(d.Int64())*time.Millisecond)
			if err != nil {
				return field.Value{}, err
			}
			return field.BoolVal(exp), nil
		}, nil

	case "reset": // reset(timer)
		name, err := argIdent(0)
		if err != nil {
			return nil, err
		}
		if kc.resolve(name).kind != vTimer {
			return nil, errAt(ex.Tok, "reset: %q is not a declared timer", name)
		}
		if err := wantArgs(1); err != nil {
			return nil, err
		}
		return func(e *env) (field.Value, error) {
			e.ctx.ResetTimer(name)
			return field.BoolVal(true), nil
		}, nil
	}
	return nil, errAt(ex.Tok, "unknown function %q", ex.Name)
}
