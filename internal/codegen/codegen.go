// Package codegen performs LiteFlow's automatic layer-wise code translation
// (paper §3.1, Listings 1 and 2): it turns a quantized NN snapshot into
// source code built from per-layer templates with all parameters inlined,
// ready to be compiled into a loadable module.
//
// The paper emits C via Jinja templates and compiles it with GCC into a .ko
// kernel module. This port emits Go via text/template and validates the
// result with go/parser — the compile step's semantic twin in an offline,
// cgo-free environment. The runtime installs an equivalent in-memory
// quant.Program (same integer parameters; its constant divisions are lowered
// to multiply-high, as a C compiler lowers the module's literal divisors), so
// generated source and executed snapshot agree bit for bit; tests cross-check
// the two on random architectures and inputs by executing the generated AST.
package codegen

import (
	"bytes"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"text/template"

	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// ErrSnapshotBuild is wrapped into every snapshot generation/validation
// failure, so callers can classify build failures with errors.Is without
// string matching (the slow path's retry policy keys off it).
var ErrSnapshotBuild = errors.New("codegen: snapshot build failed")

// Module is a generated snapshot module: the source artifact plus the
// executable program the kernel side installs.
type Module struct {
	// Name identifies the snapshot (becomes part of generated symbols).
	Name string
	// Source is the complete generated Go source of the module.
	Source string
	// Program is the in-memory executable equivalent of Source.
	Program *quant.Program
}

// fileTmpl is the top-level module template. It mirrors the paper's
// generated kernel module: a per-layer computation function chain, lookup
// tables as static data, and a single exported inference entry point that a
// module-init function registers with the LiteFlow core.
var fileTmpl = template.Must(template.New("file").Parse(`// Code generated by liteflow codegen; DO NOT EDIT.
//
// Snapshot module {{.Name}}: integer-only inference, {{len .Layers}} layers,
// input dim {{.InputSize}} (scale {{.InputScale}}), output dim {{.OutputSize}} (scale {{.OutputScale}}).
package snapshot

{{range .Tables}}{{.}}
{{end}}
// rescale converts v between fixed-point scales with round-half-away rounding.
func rescale(v, from, to int64) int64 {
	if from == to {
		return v
	}
	n := v * to
	if n >= 0 {
		return (n + from/2) / from
	}
	return (n - from/2) / from
}

{{range .LayerFuncs}}{{.}}
{{end}}
// Infer_{{.Name}} runs the full snapshot. input is at scale {{.InputScale}},
// output at scale {{.OutputScale}}.
func Infer_{{.Name}}(input []int64, output []int64) {
{{- range .Calls}}
	{{.}}
{{- end}}
}

// init registers the snapshot with the LiteFlow core module on load
// (the insmod-time lf_register_model call of the paper's NN modules).
func init() {
	registerModel("{{.Name}}", {{.InputSize}}, {{.OutputSize}}, Infer_{{.Name}})
}
`))

// layerTmpl is the per-layer template — the Go analog of the paper's
// Listing 1 fully connected layer template. Every weight and bias is
// inlined; only the computation skeleton comes from the template.
var layerTmpl = template.Must(template.New("layer").Parse(
	`// fc_{{.Index}}_comp computes dense layer {{.Index}} ({{.In}}x{{.Out}}, {{.Act}}).
func fc_{{.Index}}_comp(input []int64, output []int64) {
{{- range .Rows}}
	output[{{.I}}] = {{.Expr}}
{{- end}}
}
`))

type layerRow struct {
	I    int
	Expr string
}

type layerData struct {
	Index int
	In    int
	Out   int
	Act   string
	Rows  []layerRow
}

// Generate renders the complete module source for program p. name must be a
// valid Go identifier suffix; it panics otherwise since the caller controls
// it statically.
func Generate(p *quant.Program, name string) (string, error) {
	if !validIdent(name) {
		return "", fmt.Errorf("%w: %q is not a valid snapshot name", ErrSnapshotBuild, name)
	}
	var tables []string
	var layerFuncs []string
	var calls []string

	// Buffers threaded between layer calls, sized per layer.
	maxW := 0
	for _, l := range p.Layers {
		if l.In > maxW {
			maxW = l.In
		}
		if l.Out > maxW {
			maxW = l.Out
		}
	}

	for li, l := range p.Layers {
		ld := layerData{Index: li, In: l.In, Out: l.Out, Act: l.Act.String()}
		for i := 0; i < l.Out; i++ {
			ld.Rows = append(ld.Rows, layerRow{I: i, Expr: rowExpr(p, li, i)})
		}
		var buf bytes.Buffer
		if err := layerTmpl.Execute(&buf, ld); err != nil {
			return "", fmt.Errorf("codegen: layer %d: %w", li, err)
		}
		layerFuncs = append(layerFuncs, buf.String())
		if tbl := tableDecl(p, li); tbl != "" {
			tables = append(tables, tbl)
		}
	}

	// Chain of calls: buf0/buf1 ping-pong, final layer writes output. A
	// single-layer module needs no buffers (an unused local does not compile).
	if len(p.Layers) > 1 {
		calls = append(calls, fmt.Sprintf("var buf0, buf1 [%d]int64", maxW))
		calls = append(calls, "_ = buf1")
	}
	cur := "input"
	for li, l := range p.Layers {
		dst := "buf0[:]"
		if li%2 == 1 {
			dst = "buf1[:]"
		}
		if li == len(p.Layers)-1 {
			dst = "output"
		}
		calls = append(calls, fmt.Sprintf("fc_%d_comp(%s, %s)", li, cur, dst))
		if li%2 == 1 {
			cur = fmt.Sprintf("buf1[:%d]", l.Out)
		} else {
			cur = fmt.Sprintf("buf0[:%d]", l.Out)
		}
	}

	var out bytes.Buffer
	err := fileTmpl.Execute(&out, map[string]interface{}{
		"Name":        name,
		"Layers":      p.Layers,
		"InputSize":   p.InputSize(),
		"OutputSize":  p.OutputSize(),
		"InputScale":  p.InputScale,
		"OutputScale": p.OutputScale,
		"Tables":      tables,
		"LayerFuncs":  layerFuncs,
		"Calls":       calls,
	})
	if err != nil {
		return "", fmt.Errorf("codegen: %w", err)
	}
	return out.String(), nil
}

// rowExpr builds the fully inlined expression for one output neuron — the
// Listing 2 analog: "(input[0]+0)*55 + ... + (bias)".
func rowExpr(p *quant.Program, li, i int) string {
	l := p.Layers[li]
	var b strings.Builder
	b.WriteString("actv_")
	fmt.Fprintf(&b, "%d(", li)
	for j := 0; j < l.In; j++ {
		if j > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "input[%d]*%d", j, l.W[i][j])
	}
	fmt.Fprintf(&b, " + %d)", l.B[i])
	return b.String()
}

// tableDecl emits the activation helper (and LUT, when needed) for layer li.
// Returned source includes the actv_<li> function referenced by rowExpr.
func tableDecl(p *quant.Program, li int) string {
	l := p.Layers[li]
	var b strings.Builder
	switch l.Act {
	case nn.Tanh, nn.Sigmoid:
		tbl, tblMin, tblMax := l.TableData()
		fmt.Fprintf(&b, "// lut_%d approximates %s for layer %d over the accumulator range [%d, %d].\n",
			li, l.Act, li, tblMin, tblMax)
		fmt.Fprintf(&b, "var lut_%d = [%d]int64{", li, len(tbl))
		for i, v := range tbl {
			if i%16 == 0 {
				b.WriteString("\n\t")
			}
			fmt.Fprintf(&b, "%d, ", v)
		}
		b.WriteString("\n}\n\n")
		fmt.Fprintf(&b, `// actv_%d applies the %s LUT with linear interpolation.
func actv_%d(acc int64) int64 {
	const tblMin, tblMax = %d, %d
	if acc <= tblMin {
		return lut_%d[0]
	}
	if acc >= tblMax {
		return lut_%d[%d]
	}
	span := int64(tblMax - tblMin)
	num := (acc - tblMin) * %d
	idx := num / span
	rem := num %% span
	lo := lut_%d[idx]
	hi := lut_%d[idx+1]
	return lo + (hi-lo)*rem/span
}
`, li, l.Act, li, tblMin, tblMax, li, li, len(tbl)-1, len(tbl)-1, li, li)
	case nn.ReLU:
		fmt.Fprintf(&b, `// actv_%d applies ReLU then rescales %d -> %d.
func actv_%d(acc int64) int64 {
	if acc < 0 {
		return 0
	}
	return rescale(acc, %d, %d)
}
`, li, l.AccScale(), l.OutScale(), li, l.AccScale(), l.OutScale())
	default:
		fmt.Fprintf(&b, `// actv_%d rescales the linear accumulator %d -> %d.
func actv_%d(acc int64) int64 {
	return rescale(acc, %d, %d)
}
`, li, l.AccScale(), l.OutScale(), li, l.AccScale(), l.OutScale())
	}
	return b.String()
}

// Validate parses src as a Go source file, the stand-in for the paper's GCC
// compile step: generated modules must always be syntactically valid.
func Validate(src string) error {
	fset := token.NewFileSet()
	_, err := parser.ParseFile(fset, "snapshot.go", src, 0)
	return err
}

// Build generates, validates, and packages a snapshot module for p.
func Build(p *quant.Program, name string) (*Module, error) {
	src, err := Generate(p, name)
	if err != nil {
		return nil, err
	}
	if err := Validate(src); err != nil {
		return nil, fmt.Errorf("%w: generated module does not compile: %v", ErrSnapshotBuild, err)
	}
	return &Module{Name: name, Source: src, Program: p}, nil
}

// RuntimeSource returns the support source that generated modules link
// against: the registration hook a module's init function calls. Compiling
// {RuntimeSource, generated module} as one package is the full analog of the
// paper's "GCC compiles the module against LiteFlow core headers".
func RuntimeSource() string {
	return `// Package snapshot hosts generated LiteFlow NN snapshot modules.
package snapshot

// InferFunc is the inference entry point of a generated snapshot module.
type InferFunc func(input []int64, output []int64)

// registered collects modules as their init functions run (insmod analog).
var registered = map[string]InferFunc{}

// dims records the declared input/output sizes of each registered module.
var dims = map[string][2]int{}

// registerModel is called by each generated module's init function, the
// analog of lf_register_model in the paper's kernel core module.
func registerModel(name string, inSize, outSize int, fn InferFunc) {
	registered[name] = fn
	dims[name] = [2]int{inSize, outSize}
}
`
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
