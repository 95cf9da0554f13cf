package lang

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/runtime"
)

// addFuzzSeeds seeds a fuzz target with the testdata programs and the
// TestCompileErrors sources.
func addFuzzSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.p2g"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata programs: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, tc := range compileErrorCases {
		f.Add(tc.src)
	}
}

// FuzzParse: the lexer and parser never panic.
func FuzzParse(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
	})
}

// FuzzCompile: Compile never panics and accepts exactly the programs the
// closure oracle accepts, failing with the same first error.
func FuzzCompile(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Compile("fuzz", src)
		_, oerr := compileClosure("fuzz", src)
		if fmt.Sprint(err) != fmt.Sprint(oerr) {
			t.Fatalf("compile errors diverged\nCompile: %v\noracle:  %v\nprogram:\n%s", err, oerr, src)
		}
	})
}

// Property: the lexer and parser never panic — arbitrary byte soup either
// parses or returns a positioned error.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on %q: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: random token-shaped fragments inside a code block never panic
// the compiler either.
func TestQuickCompilerNeverPanics(t *testing.T) {
	fragments := []string{
		"int i = 0;", "i += 1;", "for (;;) { break; }", "put(arr, 1, 0);",
		"cout << 1 << endl;", "if (i < 3) { i = 4; } else { i = 5; }",
		"while (i > 0) { i--; }", "x = y;", "int i = get(arr, 0);",
		"stop;", "continue;", "float f = sqrt(2.0);", "z(1,2,3);",
	}
	f := func(picks []uint8) bool {
		var body strings.Builder
		for _, p := range picks {
			body.WriteString(fragments[int(p)%len(fragments)])
			body.WriteByte('\n')
		}
		src := "int32[] f age;\nk:\n local int32[] arr;\n %{\n" + body.String() + "%}\n"
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("compiler panicked on:\n%s\n%v", src, r)
			}
		}()
		_, _ = Compile("fuzz", src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: programs that do compile also run without panicking (errors are
// fine) under a bounded runtime.
func TestFragmentsRunSafely(t *testing.T) {
	srcs := []string{
		// division guarded by zero -> runtime error, not panic
		"int32[] f;\nk:\n local int32[] r;\n %{ int a = 1; int b = 0; put(r, a, 0); if (b != 0) { put(r, a/b, 1); } %}\n store f(0) = r;",
		// deep loop nesting
		"int32[] f;\nk:\n local int32[] r;\n %{ int s = 0; for (int i=0;i<3;++i) { for (int j=0;j<3;++j) { for (int q=0;q<3;++q) { s += 1; } } } put(r, s, 0); %}\n store f(0) = r;",
		// string concatenation in expressions
		"int32[] f;\nk:\n local int32[] r;\n %{ cout << \"a\" + \"b\" << endl; put(r, 1, 0); %}\n store f(0) = r;",
	}
	for i, src := range srcs {
		prog, err := Compile("frag", src)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if _, err := runtime.Run(prog, runtime.Options{Workers: 1, MaxAge: 2}); err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
	}
}

// ---- differential fuzz: bytecode vs the closure oracle ---------------------

// exprGen builds random, always-parseable kernel-body expressions over a
// fixed set of declared locals: typed scalars, the array r of the field's
// kind, and the Any variable a0 and Any array ra, which the lowering keeps in
// boxed registers. Generated programs may fail at run time (division by
// zero, sqrt of a negative, arithmetic on strings) — that is part of the
// property: Compile and the oracle must fail identically.
type exprGen struct {
	rng *rand.Rand
}

func (g *exprGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

var (
	genIntVars   = []string{"i0", "i1", "i2"}
	genFloatVars = []string{"f0", "f1"}
	genStrVars   = []string{"s0"}
	genIntOps    = []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	genFloatOps  = []string{"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="}
)

func (g *exprGen) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return fmt.Sprint(g.rng.Intn(21) - 10)
		}
		return g.pick(genIntVars)
	}
	switch g.rng.Intn(8) {
	case 0:
		// 0-x rather than -x: a negative literal operand would lex as "--".
		return "(0 - " + g.intExpr(depth-1) + ")"
	case 1:
		return "(!" + g.intExpr(depth-1) + ")"
	case 2:
		return "min(" + g.intExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	case 3:
		return "max(" + g.intExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	case 4:
		return "abs(" + g.intExpr(depth-1) + ")"
	case 5:
		return "get(r, " + fmt.Sprint(g.rng.Intn(8)) + ")"
	default:
		return "(" + g.intExpr(depth-1) + " " + g.pick(genIntOps) + " " + g.intExpr(depth-1) + ")"
	}
}

func (g *exprGen) floatExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("%d.%d", g.rng.Intn(9), g.rng.Intn(100))
		}
		return g.pick(genFloatVars)
	}
	switch g.rng.Intn(7) {
	case 0:
		return "sqrt(abs(" + g.floatExpr(depth-1) + "))"
	case 1:
		return "min(" + g.floatExpr(depth-1) + ", " + g.floatExpr(depth-1) + ")"
	case 2:
		return "max(" + g.floatExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	case 3:
		return "floor(" + g.floatExpr(depth-1) + ")"
	case 4:
		// Mixed-kind promotion: int op float must match in both back-ends.
		return "(" + g.intExpr(depth-1) + " " + g.pick(genFloatOps) + " " + g.floatExpr(depth-1) + ")"
	default:
		return "(" + g.floatExpr(depth-1) + " " + g.pick(genFloatOps) + " " + g.floatExpr(depth-1) + ")"
	}
}

// anyExpr yields a value of dynamic kind: the Any variable, an element of
// the Any array, or an operation with one of them as an operand.
func (g *exprGen) anyExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return "a0"
		}
		return "get(ra, " + fmt.Sprint(g.rng.Intn(4)) + ")"
	}
	switch g.rng.Intn(6) {
	case 0:
		return "(" + g.anyExpr(depth-1) + " " + g.pick(genIntOps) + " " + g.intExpr(depth-1) + ")"
	case 1:
		return "(" + g.floatExpr(depth-1) + " " + g.pick(genFloatOps) + " " + g.anyExpr(depth-1) + ")"
	case 2:
		return "min(" + g.anyExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	case 3:
		return "max(" + g.floatExpr(depth-1) + ", " + g.anyExpr(depth-1) + ")"
	case 4:
		return "abs(" + g.anyExpr(depth-1) + ")"
	default:
		return "(0 - " + g.anyExpr(depth-1) + ")"
	}
}

// valueExpr yields an expression of any static kind.
func (g *exprGen) valueExpr(depth int) string {
	switch g.rng.Intn(4) {
	case 0:
		return g.intExpr(depth)
	case 1:
		return g.floatExpr(depth)
	case 2:
		return g.strExpr(depth)
	default:
		return g.anyExpr(depth)
	}
}

func (g *exprGen) strExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		if g.rng.Intn(2) == 0 {
			return `"` + string(rune('a'+g.rng.Intn(4))) + `"`
		}
		return g.pick(genStrVars)
	}
	if g.rng.Intn(2) == 0 {
		return "(" + g.strExpr(depth-1) + " + " + g.intExpr(depth-1) + ")"
	}
	return "(" + g.strExpr(depth-1) + " + " + g.strExpr(depth-1) + ")"
}

// stmt emits one random statement; loops are always bounded so every
// generated program terminates.
func (g *exprGen) stmt(b *strings.Builder, depth int) {
	switch g.rng.Intn(14) {
	case 10:
		fmt.Fprintf(b, "a0 = %s;\n", g.valueExpr(2))
	case 11:
		fmt.Fprintf(b, "a0 %s= %s;\n", g.pick([]string{"+", "-", "*"}), g.valueExpr(1))
	case 12:
		fmt.Fprintf(b, "put(ra, %s, %d);\n", g.valueExpr(2), g.rng.Intn(4))
	case 13:
		fmt.Fprintf(b, "cout << %s << \" \" << a0 << endl;\n", g.anyExpr(2))
	case 0:
		fmt.Fprintf(b, "%s = %s;\n", g.pick(genIntVars), g.intExpr(2))
	case 1:
		fmt.Fprintf(b, "%s %s= %s;\n", g.pick(genIntVars), g.pick([]string{"+", "-", "*"}), g.intExpr(2))
	case 2:
		fmt.Fprintf(b, "%s = %s;\n", g.pick(genFloatVars), g.floatExpr(2))
	case 3:
		fmt.Fprintf(b, "%s = %s;\n", g.pick(genStrVars), g.strExpr(2))
	case 4:
		fmt.Fprintf(b, "put(r, %s, %d);\n", g.intExpr(2), g.rng.Intn(8))
	case 5:
		fmt.Fprintf(b, "cout << %s << \" \" << %s << endl;\n", g.intExpr(1), g.strExpr(1))
	case 6:
		if depth > 0 {
			fmt.Fprintf(b, "if (%s) {\n", g.intExpr(2))
			g.stmt(b, depth-1)
			b.WriteString("} else {\n")
			g.stmt(b, depth-1)
			b.WriteString("}\n")
		} else {
			fmt.Fprintf(b, "%s++;\n", g.pick(genIntVars))
		}
	case 7:
		if depth > 0 {
			lv := fmt.Sprintf("l%d", g.rng.Intn(1000))
			fmt.Fprintf(b, "for (int %s = 0; %s < %d; ++%s) {\n", lv, lv, 1+g.rng.Intn(4), lv)
			g.stmt(b, depth-1)
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(b, "if (%s == 1) { continue; }\n", lv)
			}
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(b, "if (%s > 2) { break; }\n", lv)
			}
			b.WriteString("}\n")
		} else {
			fmt.Fprintf(b, "%s--;\n", g.pick(genIntVars))
		}
	case 8:
		fmt.Fprintf(b, "%s = pow(%s, 2.0);\n", g.pick(genFloatVars), g.floatExpr(1))
	default:
		fmt.Fprintf(b, "put(r, %s, %d);\n", g.floatExpr(2), g.rng.Intn(8))
	}
}

// genProgram builds a complete run-once program whose result surface is the
// fields f and g plus whatever cout produced.
func (g *exprGen) genProgram() string {
	kinds := []string{"int32", "float64"}
	kind := kinds[g.rng.Intn(len(kinds))]
	var b strings.Builder
	fmt.Fprintf(&b, "%s[] f;\nany[] g;\nk:\n  local %s[] r;\n  local any[] ra;\n  %%{\n", kind, kind)
	b.WriteString("int i0 = 1; int i1 = -3; int i2 = 7;\n")
	b.WriteString("float f0 = 0.5; float f1 = 2.25;\n")
	b.WriteString("string s0 = \"x\";\n")
	b.WriteString("any a0 = 2;\n")
	b.WriteString("put(ra, 1, 0); put(ra, 0.5, 1); put(ra, \"y\", 2); put(ra, a0, 3);\n")
	n := 3 + g.rng.Intn(10)
	for j := 0; j < n; j++ {
		g.stmt(&b, 2)
	}
	b.WriteString("put(r, i0 + i1 + i2, 0);\n")
	b.WriteString("%}\n  store f(0) = r;\n  store g(0) = ra;\n")
	return b.String()
}

// TestDifferentialFuzzBackends generates random programs and requires Compile
// and the closure oracle to agree exactly: same compile result, same runtime
// error (or none), same cout bytes, and bit-identical field contents.
func TestDifferentialFuzzBackends(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 30
	}
	g := &exprGen{rng: rand.New(rand.NewSource(0x2909))}
	for i := 0; i < iters; i++ {
		src := g.genProgram()
		run := func(compile compileFunc) (string, string, string) {
			prog, err := compile("fuzz", src)
			if err != nil {
				t.Fatalf("iter %d: compile: %v\n%s", i, err, src)
			}
			var out strings.Builder
			node, err := runtime.NewNode(prog, runtime.Options{Workers: 1, Output: &out})
			if err != nil {
				t.Fatalf("iter %d: node: %v", i, err)
			}
			_, rerr := node.Run()
			errStr := ""
			if rerr != nil {
				errStr = rerr.Error()
			}
			snap := ""
			if rerr == nil {
				for _, name := range []string{"f", "g"} {
					s, serr := node.Snapshot(name, 0)
					if serr != nil {
						t.Fatalf("iter %d: snapshot %s: %v", i, name, serr)
					}
					snap += name + "=" + describe(s) + " "
				}
			}
			return errStr, out.String(), snap
		}
		bcErr, bcOut, bcSnap := run(Compile)
		clErr, clOut, clSnap := run(compileClosure)
		if bcErr != clErr {
			t.Fatalf("iter %d: error surfaces diverged\nbytecode: %q\nclosure:  %q\nprogram:\n%s", i, bcErr, clErr, src)
		}
		if bcOut != clOut {
			t.Fatalf("iter %d: cout diverged\nbytecode: %q\nclosure:  %q\nprogram:\n%s", i, bcOut, clOut, src)
		}
		if bcSnap != clSnap {
			t.Fatalf("iter %d: fields diverged\nbytecode: %s\nclosure:  %s\nprogram:\n%s", i, bcSnap, clSnap, src)
		}
	}
}
