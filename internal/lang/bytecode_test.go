package lang

// Tests pinning the register-bytecode back-end against the closure
// interpreter oracle (closure_test.go): the two must agree bit-for-bit on
// field contents, cout output and error surfaces for every program either
// can run.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
)

// anyPrograms hold values whose kind is only known at run time: an Any array
// local mixing element kinds, element and whole fetches from an Any field,
// and an Any block variable under compound assignment and the builtins. The
// lowering accesses all of them through boxed registers.
var anyPrograms = map[string]string{
	"any-array": `any[] out;
k:
  local any[] r;
  %{
    put(r, 3, 0);
    put(r, 2.5, 1);
    put(r, "s", 2);
    put(r, get(r, 0) + get(r, 1), 3);
    put(r, get(r, 2) + get(r, 0), 4);
    put(r, get(r, 0) * 7 - get(r, 0) / 2, 5);
    for (int i = 0; i < extent(r, 0); ++i) { cout << get(r, i) << " "; }
    cout << (get(r, 0) < get(r, 1)) << endl;
  %}
  store out(0) = r;`,
	"any-field": `any[] src;
any[] elems;
float64[] sums;
seed:
  local any[] v;
  %{ put(v, 4, 0); put(v, 1.5, 1); put(v, "x", 2); put(v, 0 - 9, 3); %}
  store src(0) = v;
elem:
  index x;
  local int32 e;
  local any d;
  fetch e = src(0)[x];
  %{
    d = e + 1;
    e += 2;
    cout << "elem " << x << " " << e << " " << d << endl;
  %}
  store elems(0)[x] = d;
whole:
  local any[] w;
  local float64[] s;
  fetch w = src(0);
  %{
    put(s, get(w, 0) + get(w, 1), 0);
    put(s, abs(get(w, 3)), 1);
    cout << "whole " << extent(w, 0) << " " << get(w, 2) + get(w, 0) << endl;
  %}
  store sums(0) = s;`,
	"any-var": `float64[] out;
k:
  local float64[] r;
  local any acc;
  %{
    any v = 3;
    v += 2;
    cout << v << " ";
    v += 0.5;
    cout << v << " ";
    any m = min(v, 4);
    any n = abs(0 - v);
    any q = max(m, "z");
    acc = v;
    acc -= 1;
    v++;
    cout << m << " " << n << " " << q << " " << acc << " " << v << endl;
    put(r, v, 0);
    put(r, m, 1);
    put(r, n, 2);
    put(r, acc, 3);
  %}
  store out(0) = r;`,
}

// TestBytecodeNoFallbackOnTestdata asserts that every kernel of every
// testdata program, and of the Any programs, lowers to bytecode.
func TestBytecodeNoFallbackOnTestdata(t *testing.T) {
	srcs := map[string]string{}
	for _, name := range []string{"mulsum", "kmeans", "wavefront", "dctstats"} {
		srcs[name] = readTestdata(t, name+".p2g")
	}
	for name, src := range anyPrograms {
		srcs[name] = src
	}
	for name, src := range srcs {
		listings, err := Disassemble(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, l := range listings {
			if l.Fallback {
				t.Errorf("%s: kernel %s reports a fallback", name, l.Kernel)
			} else if l.Instructions == 0 {
				t.Errorf("%s: kernel %s lowered to zero instructions", name, l.Kernel)
			}
		}
	}
}

// compileFunc is Compile or the closure oracle compileClosure.
type compileFunc func(name, src string) (*core.Program, error)

// equivRun compiles src with compile, runs it and returns the node (for
// snapshots) plus the captured cout output, one sorted entry per kernel
// instance.
func equivRun(t *testing.T, name, src string, compile compileFunc, opts runtime.Options) (*runtime.Node, string) {
	t.Helper()
	prog, err := compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	var out instanceOutput
	opts.Output = &out
	node, err := runtime.NewNode(prog, opts)
	if err != nil {
		t.Fatalf("%s: node: %v", name, err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if len(rep.Stalled) > 0 {
		t.Fatalf("%s: stalled: %v", name, rep.Stalled)
	}
	sort.Strings(out.chunks)
	return node, fmt.Sprintf("%q", out.chunks)
}

// instanceOutput records cout output per kernel instance: the runtime writes
// each instance's output in one Write call. The order in which instances of
// different ages run is up to the scheduler, even with a single worker, so
// runs are compared on the sorted instance outputs; within an instance the
// output is compared byte for byte.
type instanceOutput struct{ chunks []string }

func (o *instanceOutput) Write(p []byte) (int, error) {
	o.chunks = append(o.chunks, string(p))
	return len(p), nil
}

// describe renders a snapshot with the kind of every element, so elements
// that print alike but differ in kind do not compare equal.
func describe(a *field.Array) string {
	if a == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteString(a.String())
	for i := 0; i < a.Len(); i++ {
		fmt.Fprintf(&b, " %v", a.AtFlat(i).Kind())
	}
	return b.String()
}

// TestBytecodeClosureEquivalence is the randomized stress gate: every
// testdata program and every Any program runs under Compile and the closure
// oracle with randomized worker counts, and fields must match bit-for-bit at
// every age while every instance's cout output matches byte for byte.
func TestBytecodeClosureEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts runtime.Options
		ages int // snapshot ages 0..ages inclusive
	}{
		{"mulsum", runtime.Options{MaxAge: 6}, 6},
		{"kmeans", runtime.Options{KernelMaxAge: map[string]int{"assign": 4, "refine": 4, "print": 5}}, 5},
		{"wavefront", runtime.Options{}, 2},
		{"dctstats", runtime.Options{}, 2},
		{"any-array", runtime.Options{}, 0},
		{"any-field", runtime.Options{}, 0},
		{"any-var", runtime.Options{}, 0},
	}
	rng := rand.New(rand.NewSource(0x9901))
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src, ok := anyPrograms[tc.name]
			if !ok {
				src = readTestdata(t, tc.name+".p2g")
			}
			for trial := 0; trial < 3; trial++ {
				opts := tc.opts
				opts.Workers = 1 + rng.Intn(8)
				bcNode, bcOut := equivRun(t, tc.name, src, Compile, opts)
				clNode, clOut := equivRun(t, tc.name, src, compileClosure, opts)
				if bcOut != clOut {
					t.Fatalf("workers=%d output diverged:\nbytecode: %s\nclosure:  %s", opts.Workers, bcOut, clOut)
				}
				prog, err := Compile(tc.name, src)
				if err != nil {
					t.Fatal(err)
				}
				for _, fd := range prog.Fields {
					for age := 0; age <= tc.ages; age++ {
						bs, err := bcNode.Snapshot(fd.Name, age)
						if err != nil {
							t.Fatal(err)
						}
						cs, err := clNode.Snapshot(fd.Name, age)
						if err != nil {
							t.Fatal(err)
						}
						if !bs.Equal(cs) || describe(bs) != describe(cs) {
							t.Fatalf("workers=%d field %s(%d) diverged:\nbytecode: %s\nclosure:  %s",
								opts.Workers, fd.Name, age, describe(bs), describe(cs))
						}
					}
				}
			}
		})
	}
}

// TestBytecodeRuntimeErrorParity runs programs whose kernels fail at run
// time and checks Compile and the closure oracle surface the identical error
// string.
func TestBytecodeRuntimeErrorParity(t *testing.T) {
	cases := map[string]string{
		"int-div-zero": `int32[] out;
k:
  local int32[] r;
  %{
    int a = 7; int b = 0;
    put(r, a / b, 0);
  %}
  store out(0) = r;`,
		"int-mod-zero": `int32[] out;
k:
  local int32[] r;
  %{
    int a = 7; int b = 0;
    put(r, a % b, 0);
  %}
  store out(0) = r;`,
		"float-div-zero": `int32[] out;
k:
  local int32[] r;
  %{
    float a = 7.5; float b = 0.0;
    put(r, a / b, 0);
  %}
  store out(0) = r;`,
		"float-mod": `int32[] out;
k:
  local int32[] r;
  %{
    float a = 7.5; float b = 2.0;
    put(r, a % b, 0);
  %}
  store out(0) = r;`,
		"string-sub": `int32[] out;
k:
  local int32[] r;
  %{
    string s = "ab";
    s = s - "b";
    put(r, 1, 0);
  %}
  store out(0) = r;`,
		"sqrt-negative": `int32[] out;
k:
  local int32[] r;
  %{
    float a = 0.0 - 4.0;
    put(r, sqrt(a), 0);
  %}
  store out(0) = r;`,
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			errFor := func(compile compileFunc) string {
				prog, err := compile(name, src)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				_, err = runtime.Run(prog, runtime.Options{Workers: 1})
				if err == nil {
					t.Fatal("expected runtime error")
				}
				return err.Error()
			}
			bc, cl := errFor(Compile), errFor(compileClosure)
			if bc != cl {
				t.Errorf("error surfaces diverged:\nbytecode: %s\nclosure:  %s", bc, cl)
			}
		})
	}
}

// TestArithEdgeCases pins the shared scalar-arithmetic semantics both
// back-ends are built on: two's-complement wraparound, zero-divide errors,
// mixed-kind promotion and the string operators.
func TestArithEdgeCases(t *testing.T) {
	i64 := field.Int64Val
	f64 := field.Float64Val
	str := field.StringVal
	cases := []struct {
		name    string
		op      string
		l, r    field.Value
		want    field.Value
		wantErr string
	}{
		{name: "int-overflow-wraps", op: "+", l: i64(math.MaxInt64), r: i64(1), want: i64(math.MinInt64)},
		{name: "int-underflow-wraps", op: "-", l: i64(math.MinInt64), r: i64(1), want: i64(math.MaxInt64)},
		{name: "int-mul-wraps", op: "*", l: i64(math.MaxInt64), r: i64(2), want: i64(-2)},
		{name: "int-div-zero", op: "/", l: i64(1), r: i64(0), wantErr: "division by zero"},
		{name: "int-mod-zero", op: "%", l: i64(1), r: i64(0), wantErr: "modulo by zero"},
		{name: "int-div-trunc", op: "/", l: i64(-7), r: i64(2), want: i64(-3)},
		{name: "int-mod-sign", op: "%", l: i64(-7), r: i64(2), want: i64(-1)},
		{name: "float-promote-left", op: "+", l: f64(1.5), r: i64(2), want: f64(3.5)},
		{name: "float-promote-right", op: "*", l: i64(2), r: f64(0.5), want: f64(1)},
		{name: "float-div-zero", op: "/", l: f64(1), r: f64(0), wantErr: "division by zero"},
		{name: "float-neg-zero-div", op: "/", l: f64(1), r: f64(math.Copysign(0, -1)), wantErr: "division by zero"},
		{name: "float-mod-undefined", op: "%", l: f64(7), r: f64(2), wantErr: "% is not defined on floats"},
		{name: "string-concat", op: "+", l: str("a"), r: str("b"), want: str("ab")},
		{name: "string-concat-int", op: "+", l: str("n="), r: i64(3), want: str("n=3")},
		{name: "string-eq", op: "==", l: str("x"), r: str("x"), want: field.BoolVal(true)},
		{name: "string-ne", op: "!=", l: str("x"), r: str("y"), want: field.BoolVal(true)},
		{name: "string-sub-error", op: "-", l: str("a"), r: str("b"), wantErr: `operator "-" not defined on strings`},
		{name: "bool-promotes-int", op: "+", l: field.BoolVal(true), r: i64(1), want: i64(2)},
	}
	for _, tc := range cases {
		got, err := arith(Token{}, tc.op, tc.l, tc.r)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if got.Kind() != tc.want.Kind() || !got.Equal(tc.want) {
			t.Errorf("%s: %v %s %v = %v (%v), want %v (%v)",
				tc.name, tc.l, tc.op, tc.r, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}

// TestCompareTotalOrder pins the comparison helpers the VM mirrors with
// branch-form instructions: NaN compares equal to everything (the
// interpreter's non-IEEE total order) and the int compare is exact.
func TestCompareTotalOrder(t *testing.T) {
	nan := math.NaN()
	if c := compareFloat(nan, 5); c != 0 {
		t.Errorf("compareFloat(NaN, 5) = %d, want 0", c)
	}
	if c := compareFloat(5, nan); c != 0 {
		t.Errorf("compareFloat(5, NaN) = %d, want 0", c)
	}
	if c := compareFloat(nan, nan); c != 0 {
		t.Errorf("compareFloat(NaN, NaN) = %d, want 0", c)
	}
	if c := compareFloat(math.Copysign(0, -1), 0); c != 0 {
		t.Errorf("compareFloat(-0, +0) = %d, want 0", c)
	}
	if c := compareFloat(math.Inf(-1), math.Inf(1)); c != -1 {
		t.Errorf("compareFloat(-Inf, +Inf) = %d, want -1", c)
	}
	if c := compareInt(math.MinInt64, math.MaxInt64); c != -1 {
		t.Errorf("compareInt(min, max) = %d, want -1", c)
	}
	if c := compareInt(-1, -1); c != 0 {
		t.Errorf("compareInt(-1, -1) = %d, want 0", c)
	}
	// The equivalence the VM relies on: a NaN operand must take the "=="
	// branch through arith exactly like compareFloat says.
	v, err := arith(Token{}, "==", field.Float64Val(nan), field.Float64Val(3)) //nolint:staticcheck
	if err != nil || !v.Bool() {
		t.Errorf("arith(NaN == 3) = %v, %v; want true (total order)", v, err)
	}
	v, err = arith(Token{}, "<", field.Float64Val(nan), field.Float64Val(3))
	if err != nil || v.Bool() {
		t.Errorf("arith(NaN < 3) = %v, %v; want false", v, err)
	}
}
