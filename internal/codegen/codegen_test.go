package codegen

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

func auroraProgram(t *testing.T) (*nn.Network, *quant.Program) {
	t.Helper()
	net := nn.New([]int{10, 8, 4, 1}, []nn.Activation{nn.Tanh, nn.ReLU, nn.Linear}, 17)
	return net, quant.Quantize(net, quant.DefaultConfig())
}

func TestGenerateProducesValidGo(t *testing.T) {
	_, p := auroraProgram(t)
	src, err := Generate(p, "aurora")
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(src); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	for _, want := range []string{
		"func fc_0_comp", "func fc_1_comp", "func fc_2_comp",
		"func Infer_aurora", "lut_0", "registerModel(\"aurora\"",
		"DO NOT EDIT",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestGeneratedModuleTypeChecks(t *testing.T) {
	// Compile-analog: the generated module plus the runtime support source
	// must form a type-correct package, like a .ko linking against the
	// LiteFlow core module's exported symbols — for the Aurora program and
	// for random architectures, single-layer ones included.
	_, aurora := auroraProgram(t)
	progs := []*quant.Program{aurora}
	r := rand.New(rand.NewSource(9))
	for len(progs) < 20 {
		progs = append(progs, randomProgram(r))
	}
	for pi, p := range progs {
		src, err := Generate(p, "aurora")
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for name, s := range map[string]string{"snapshot.go": src, "runtime.go": RuntimeSource()} {
			f, err := parser.ParseFile(fset, name, s, 0)
			if err != nil {
				t.Fatalf("program %d: parse %s: %v", pi, name, err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: importer.Default()}
		if _, err := conf.Check("snapshot", fset, files, nil); err != nil {
			t.Fatalf("program %d (%d layers): generated module fails type check: %v", pi, len(p.Layers), err)
		}
	}
}

func TestBuildRejectsBadName(t *testing.T) {
	_, p := auroraProgram(t)
	for _, bad := range []string{"", "1abc", "has space", "semi;colon", "dash-ed"} {
		if _, err := Build(p, bad); err == nil {
			t.Errorf("Build(%q) must fail", bad)
		}
	}
}

func TestBuildAcceptsValidNames(t *testing.T) {
	_, p := auroraProgram(t)
	for _, good := range []string{"aurora", "mocc_v2", "A1", "_x"} {
		if _, err := Build(p, good); err != nil {
			t.Errorf("Build(%q) failed: %v", good, err)
		}
	}
}

func TestValidateCatchesSyntaxErrors(t *testing.T) {
	if err := Validate("package snapshot\nfunc broken( {"); err == nil {
		t.Error("Validate must reject broken source")
	}
}

// interp executes the small Go subset a generated module is written in —
// integer arithmetic (/ and % included), comparisons, if/return, :=, array
// and slice indexing, const/var declarations and calls between the module's
// own functions — so the generated source itself, with its inlined weights,
// LUTs and literal divisors, serves as an oracle for quant.Program.
type interp struct {
	t     *testing.T
	funcs map[string]*ast.FuncDecl
	luts  map[string][]int64
}

// value is an int64 (comparisons yield 0 or 1) or, when s is non-nil, a
// slice sharing its backing array like a Go slice.
type value struct {
	n int64
	s []int64
}

func newInterp(t *testing.T, file *ast.File) *interp {
	in := &interp{t: t, funcs: map[string]*ast.FuncDecl{}, luts: map[string][]int64{}}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			in.funcs[d.Name.Name] = d
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				lit := vs.Values[0].(*ast.CompositeLit)
				tbl := make([]int64, len(lit.Elts))
				for i, e := range lit.Elts {
					tbl[i] = in.eval(e, nil).n
				}
				in.luts[vs.Names[0].Name] = tbl
			}
		}
	}
	return in
}

// call runs the named module function on args and returns its result.
func (in *interp) call(name string, args []value) value {
	fd, ok := in.funcs[name]
	if !ok {
		in.t.Fatalf("call to undefined function %s", name)
	}
	env := map[string]value{}
	k := 0
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			env[id.Name] = args[k]
			k++
		}
	}
	v, _ := in.exec(fd.Body.List, env)
	return v
}

func (in *interp) exec(stmts []ast.Stmt, env map[string]value) (value, bool) {
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.ReturnStmt:
			if len(st.Results) == 0 {
				return value{}, true
			}
			return in.eval(st.Results[0], env), true
		case *ast.IfStmt:
			if in.eval(st.Cond, env).n != 0 {
				if v, ret := in.exec(st.Body.List, env); ret {
					return v, true
				}
			}
		case *ast.ExprStmt:
			in.eval(st.X, env)
		case *ast.AssignStmt:
			v := in.eval(st.Rhs[0], env)
			switch lhs := st.Lhs[0].(type) {
			case *ast.Ident:
				env[lhs.Name] = v
			case *ast.IndexExpr:
				in.eval(lhs.X, env).s[in.eval(lhs.Index, env).n] = v.n
			default:
				in.t.Fatalf("unsupported assignment to %T", lhs)
			}
		case *ast.DeclStmt:
			for _, spec := range st.Decl.(*ast.GenDecl).Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if len(vs.Values) > 0 {
						env[id.Name] = in.eval(vs.Values[i], env)
					} else {
						n := in.eval(vs.Type.(*ast.ArrayType).Len, env).n
						env[id.Name] = value{s: make([]int64, n)}
					}
				}
			}
		default:
			in.t.Fatalf("unsupported statement %T", st)
		}
	}
	return value{}, false
}

func (in *interp) eval(e ast.Expr, env map[string]value) value {
	switch e := e.(type) {
	case *ast.BasicLit:
		n, err := strconv.ParseInt(e.Value, 10, 64)
		if err != nil {
			in.t.Fatalf("bad literal %q: %v", e.Value, err)
		}
		return value{n: n}
	case *ast.Ident:
		if v, ok := env[e.Name]; ok {
			return v
		}
		if tbl, ok := in.luts[e.Name]; ok {
			return value{s: tbl}
		}
		in.t.Fatalf("undefined identifier %s", e.Name)
	case *ast.ParenExpr:
		return in.eval(e.X, env)
	case *ast.UnaryExpr:
		if e.Op == token.SUB {
			return value{n: -in.eval(e.X, env).n}
		}
	case *ast.IndexExpr:
		return value{n: in.eval(e.X, env).s[in.eval(e.Index, env).n]}
	case *ast.SliceExpr:
		s := in.eval(e.X, env).s
		lo, hi := int64(0), int64(len(s))
		if e.Low != nil {
			lo = in.eval(e.Low, env).n
		}
		if e.High != nil {
			hi = in.eval(e.High, env).n
		}
		return value{s: s[lo:hi]}
	case *ast.BinaryExpr:
		x, y := in.eval(e.X, env).n, in.eval(e.Y, env).n
		b := func(c bool) value {
			if c {
				return value{n: 1}
			}
			return value{}
		}
		switch e.Op {
		case token.ADD:
			return value{n: x + y}
		case token.SUB:
			return value{n: x - y}
		case token.MUL:
			return value{n: x * y}
		case token.QUO:
			return value{n: x / y}
		case token.REM:
			return value{n: x % y}
		case token.LSS:
			return b(x < y)
		case token.LEQ:
			return b(x <= y)
		case token.GEQ:
			return b(x >= y)
		case token.EQL:
			return b(x == y)
		}
	case *ast.CallExpr:
		name := e.Fun.(*ast.Ident).Name
		args := make([]value, len(e.Args))
		for i, a := range e.Args {
			args[i] = in.eval(a, env)
		}
		if name == "int64" {
			return args[0]
		}
		return in.call(name, args)
	}
	in.t.Fatalf("unsupported expression %T", e)
	return value{}
}

// randomProgram quantizes a random network — widths 1–13, so layers of
// width 1 and widths that are not multiples of 4 occur, any of the four
// activations per layer — under scales and table sizes that are not powers
// of two.
func randomProgram(r *rand.Rand) *quant.Program {
	depth := 1 + r.Intn(3)
	sizes := make([]int, depth+1)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(13)
	}
	acts := make([]nn.Activation, depth)
	for i := range acts {
		acts[i] = nn.Activation(r.Intn(4))
	}
	cfg := quant.Config{
		InputScale:  1000 + r.Int63n(4000),
		WeightScale: 1000 + r.Int63n(4000),
		ActScale:    1000 + r.Int63n(4000),
		OutputScale: 100 + r.Int63n(10000),
		TableSize:   100 + r.Intn(5000),
		TableRange:  2 + 10*r.Float64(),
	}
	return quant.Quantize(nn.New(sizes, acts, r.Int63()), cfg)
}

// TestGeneratedSourceMatchesProgram executes the generated module's
// Infer_<name> entry point and checks that it reproduces the in-memory
// Program's inference exactly on random inputs, for the Aurora program and
// for random architectures. This is the "generated module computes what the
// snapshot computes" guarantee; the module spells out every division by its
// literal divisor, so it also checks the Program's division-free arithmetic.
func TestGeneratedSourceMatchesProgram(t *testing.T) {
	_, aurora := auroraProgram(t)
	progs := []*quant.Program{aurora}
	r := rand.New(rand.NewSource(4))
	for len(progs) < 60 {
		progs = append(progs, randomProgram(r))
	}
	for pi, p := range progs {
		src, err := Generate(p, "snap")
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(token.NewFileSet(), "snapshot.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := newInterp(t, file)
		for trial := 0; trial < 25; trial++ {
			x := make([]float64, p.InputSize())
			for i := range x {
				x[i] = r.Float64()*4 - 2
			}
			qin := p.QuantizeInput(x, nil)
			got := make([]int64, p.OutputSize())
			in.call("Infer_snap", []value{{s: qin}, {s: got}})

			want := make([]int64, p.OutputSize())
			p.Infer(qin, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("program %d (%d layers) trial %d output %d: generated source = %d, program = %d",
						pi, len(p.Layers), trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGenerateInlinesWeights(t *testing.T) {
	// A known weight must appear verbatim in the source (Listing 2 style).
	net := nn.New([]int{2, 1}, []nn.Activation{nn.Linear}, 1)
	net.Layers[0].W[0][0] = 1.0 // becomes WeightScale exactly
	cfg := quant.DefaultConfig()
	p := quant.Quantize(net, cfg)
	src, err := Generate(p, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	want := "input[0]*" + strconv.FormatInt(cfg.WeightScale, 10)
	if !strings.Contains(src, want) {
		t.Errorf("source must inline weight as %q:\n%s", want, src)
	}
}

func TestRuntimeSourceParses(t *testing.T) {
	if err := Validate(RuntimeSource()); err != nil {
		t.Fatalf("runtime source invalid: %v", err)
	}
}

func TestModuleFields(t *testing.T) {
	_, p := auroraProgram(t)
	m, err := Build(p, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "snap1" || m.Program != p || m.Source == "" {
		t.Errorf("module fields wrong: %+v", m.Name)
	}
}

func BenchmarkGenerateAurora(b *testing.B) {
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 1)
	p := quant.Quantize(net, quant.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, "aurora"); err != nil {
			b.Fatal(err)
		}
	}
}
