// Package quant implements LiteFlow's high-precision integer quantization
// (paper §3.1): it converts a float userspace network (package nn) into an
// integer-only Program — the "NN snapshot" — whose inference uses nothing a
// kernel fast path cannot: int64 add/mul/shift, table lookups, and
// multiply-high by precomputed constants for exact division by each layer's
// fixed divisors (the lowering a C compiler applies to the generated
// module's constant divisions). No float operation and no hardware division
// executes on the inference path.
//
// Two ideas from the paper are load-bearing here:
//
//   - Scale-up layers. Naive integer quantization of an output in [0,1]
//     collapses it to {0,1}. LiteFlow appends a scaling layer with factor C
//     (typically 1000) so outputs live in {0..C}, losing ~2% accuracy
//     (Figure 7). Config.OutputScale is that C.
//
//   - Lookup-table activations. tanh/sigmoid are unavailable in kernel
//     space; Taylor approximations lose precision outside a narrow range and
//     cost more for higher degrees. A bounded LUT with linear interpolation
//     gives constant-time, uniformly accurate evaluation.
package quant

import (
	"fmt"
	"math"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// Config controls quantization precision.
type Config struct {
	// InputScale is the fixed-point scale of network inputs:
	// x_int = round(x_float · InputScale).
	InputScale int64
	// WeightScale is the per-weight fixed-point scale.
	WeightScale int64
	// ActScale is the fixed-point scale of hidden-layer activations.
	ActScale int64
	// OutputScale is the paper's scale-up factor C applied to the final
	// layer: y_int = round(y_float · C). Sweeping C reproduces Figure 7.
	OutputScale int64
	// TableSize is the number of entries in activation lookup tables.
	TableSize int
	// TableRange bounds LUT inputs to [-TableRange, +TableRange] (pre-
	// activation); tanh/sigmoid saturate outside ±8 at float precision.
	TableRange float64
}

// DefaultConfig returns the configuration used by all experiments:
// 1000× output scaling (the paper's example), 4096-entry tables.
func DefaultConfig() Config {
	return Config{
		InputScale:  1 << 12,
		WeightScale: 1 << 12,
		ActScale:    1 << 12,
		OutputScale: 1000,
		TableSize:   4096,
		TableRange:  8,
	}
}

// Layer is one quantized dense layer. Weights are at WeightScale; biases are
// pre-scaled to inScale·WeightScale so they add directly into the
// accumulator.
type Layer struct {
	In, Out int
	W       [][]int64 // [Out][In], scale = weightScale; row views into w
	B       []int64   // [Out], scale = inScale·weightScale
	Act     nn.Activation

	w []int64 // all weights, row-major [Out·In]: one block for inference

	inScale  int64   // scale of this layer's inputs
	accScale int64   // inScale·weightScale: scale of the accumulator
	outScale int64   // scale of this layer's outputs
	accDiv   divisor // division by accScale (ReLU/Linear rescale)

	// LUT for tanh/sigmoid: maps accumulator values in [tblMin, tblMax]
	// to activated outputs at outScale.
	table   []int64
	tblMin  int64   // accumulator value of table[0]
	tblMax  int64   // accumulator value of table[len-1]
	spanDiv divisor // division by tblMax-tblMin; set only when positive
}

// InScale returns the fixed-point scale of the layer's inputs.
func (l *Layer) InScale() int64 { return l.inScale }

// AccScale returns the fixed-point scale of the layer's accumulator
// (inScale · weightScale).
func (l *Layer) AccScale() int64 { return l.accScale }

// OutScale returns the fixed-point scale of the layer's outputs.
func (l *Layer) OutScale() int64 { return l.outScale }

// TableData exposes the activation lookup table and the accumulator values
// of its first and last entries; the table is nil for layers that need none.
// Code generation inlines this data into the emitted module.
func (l *Layer) TableData() (table []int64, tblMin, tblMax int64) {
	return l.table, l.tblMin, l.tblMax
}

// Program is an executable integer snapshot of a float network. The struct
// itself is immutable after Quantize; all mutable execution state lives in an
// Arena, so one Program can serve many goroutines concurrently as long as
// each supplies its own Arena (InferWith/InferBatch). The convenience Infer
// method uses a Program-owned arena and therefore remains single-threaded.
type Program struct {
	Layers      []*Layer
	InputScale  int64
	OutputScale int64

	macs     int
	maxWidth int
	arena    Arena // backs Infer; not used by InferWith/InferBatch
}

// Arena is the reusable scratch an inference needs: two ping-pong activation
// buffers sized to the widest layer. A zero Arena is valid and grows on first
// use; after that, steady-state inference performs zero heap allocations
// (guarded by testing.AllocsPerRun assertions in quant and core). Arenas are
// not goroutine-safe — use one per worker.
type Arena struct {
	bufs [2][]int64
}

// Reserve grows the arena to serve programs up to the given layer width.
func (a *Arena) Reserve(width int) {
	if cap(a.bufs[0]) < width {
		a.bufs[0] = make([]int64, width)
		a.bufs[1] = make([]int64, width)
	}
}

// MaxWidth returns the widest layer dimension, i.e. the arena width InferWith
// requires.
func (p *Program) MaxWidth() int { return p.maxWidth }

// NewArena returns an arena pre-sized for this program.
func (p *Program) NewArena() *Arena {
	a := &Arena{}
	a.Reserve(p.maxWidth)
	return a
}

// Quantize converts net into an integer Program under cfg. It panics on
// non-positive scales, which would be silent precision bugs otherwise.
func Quantize(net *nn.Network, cfg Config) *Program {
	if cfg.InputScale <= 0 || cfg.WeightScale <= 0 || cfg.ActScale <= 0 || cfg.OutputScale <= 0 {
		panic("quant: scales must be positive")
	}
	if cfg.TableSize < 2 {
		panic("quant: table size must be at least 2")
	}
	p := &Program{InputScale: cfg.InputScale, OutputScale: cfg.OutputScale}
	inScale := cfg.InputScale
	maxWidth := 0
	for li, fl := range net.Layers {
		outScale := cfg.ActScale
		if li == len(net.Layers)-1 {
			outScale = cfg.OutputScale
		}
		accScale := inScale * cfg.WeightScale
		l := &Layer{
			In: fl.In, Out: fl.Out, Act: fl.Act,
			inScale:  inScale,
			accScale: accScale,
			outScale: outScale,
			accDiv:   newDivisor(accScale),
		}
		l.w = make([]int64, fl.Out*fl.In)
		l.W = make([][]int64, fl.Out)
		l.B = make([]int64, fl.Out)
		for i := range fl.W {
			l.W[i] = l.w[i*fl.In : (i+1)*fl.In : (i+1)*fl.In]
			for j, w := range fl.W[i] {
				l.W[i][j] = roundToInt(w * float64(cfg.WeightScale))
			}
			l.B[i] = roundToInt(fl.B[i] * float64(l.accScale))
		}
		if fl.Act == nn.Tanh || fl.Act == nn.Sigmoid {
			buildTable(l, fl.Act, cfg)
		}
		p.Layers = append(p.Layers, l)
		p.macs += fl.In * fl.Out
		if fl.In > maxWidth {
			maxWidth = fl.In
		}
		if fl.Out > maxWidth {
			maxWidth = fl.Out
		}
		inScale = outScale
	}
	p.maxWidth = maxWidth
	p.arena.Reserve(maxWidth)
	return p
}

func roundToInt(x float64) int64 {
	return int64(math.Round(x))
}

// buildTable fills the layer's activation LUT. Entries map accumulator
// values (scale accScale) over [-R, R] in pre-activation units to activated
// outputs at outScale.
func buildTable(l *Layer, act nn.Activation, cfg Config) {
	l.table = make([]int64, cfg.TableSize)
	l.tblMin = -roundToInt(cfg.TableRange * float64(l.accScale))
	l.tblMax = roundToInt(cfg.TableRange * float64(l.accScale))
	if span := l.tblMax - l.tblMin; span > 0 {
		// Otherwise lookup clamps every input and never divides.
		l.spanDiv = newDivisor(span)
	}
	for i := range l.table {
		// Pre-activation value represented by entry i, in float.
		frac := float64(i) / float64(cfg.TableSize-1)
		x := -cfg.TableRange + 2*cfg.TableRange*frac
		l.table[i] = roundToInt(act.Apply(x) * float64(l.outScale))
	}
}

// InputSize returns the program's input dimension.
func (p *Program) InputSize() int { return p.Layers[0].In }

// OutputSize returns the program's output dimension.
func (p *Program) OutputSize() int { return p.Layers[len(p.Layers)-1].Out }

// MACs returns the multiply-accumulate count of one inference.
func (p *Program) MACs() int { return p.macs }

// NumParams returns the number of quantized parameters, used to cost
// snapshot installation.
func (p *Program) NumParams() int {
	n := 0
	for _, l := range p.Layers {
		n += l.In*l.Out + l.Out
	}
	return n
}

// Infer runs integer-only inference: in must be at InputScale, out receives
// values at OutputScale. Both slices must match the program's dimensions.
// The hot path performs no allocation and no floating-point arithmetic. It
// uses the Program's internal arena and is therefore not goroutine-safe; use
// InferWith with a per-worker Arena for concurrent execution.
func (p *Program) Infer(in, out []int64) {
	p.InferWith(&p.arena, in, out)
}

// InferWith is Infer against caller-owned scratch: the same integer-only hot
// path, but with all mutable state in a, so distinct goroutines can execute
// one Program concurrently with distinct arenas.
func (p *Program) InferWith(a *Arena, in, out []int64) {
	if len(in) != p.InputSize() {
		panic(fmt.Sprintf("quant: input size %d, want %d", len(in), p.InputSize()))
	}
	if len(out) != p.OutputSize() {
		panic(fmt.Sprintf("quant: output size %d, want %d", len(out), p.OutputSize()))
	}
	a.Reserve(p.maxWidth)
	p.inferInto(a, in, out)
}

// inferInto is the validated inner loop; a must already cover maxWidth.
func (p *Program) inferInto(a *Arena, in, out []int64) {
	cur := in
	for li, l := range p.Layers {
		dst := a.bufs[li&1][:l.Out]
		if li == len(p.Layers)-1 {
			dst = out
		}
		l.forward(cur, dst)
		cur = dst
	}
}

// forward computes dst = activate(W·x + B): four output rows per pass over
// x (dot4), a scalar loop for the last Out mod 4 rows, then the activation
// over the whole row. Integer addition is associative, so every accumulator
// is exactly the row-at-a-time sum.
func (l *Layer) forward(x, dst []int64) {
	n := l.In
	x = x[:n]
	b := l.B[:l.Out]
	dst = dst[:len(b)]
	w := l.w[:len(b)*n]
	i := 0
	for ; i+4 <= len(b); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(x, w[i*n:(i+4)*n], b[i], b[i+1], b[i+2], b[i+3])
	}
	for ; i < len(b); i++ {
		wi := w[i*n:][:len(x)]
		acc := b[i]
		for j, v := range x {
			acc += wi[j] * v
		}
		dst[i] = acc
	}
	l.activate(dst)
}

// dot4 adds the dot products of x with the four consecutive rows of w
// (4·len(x) weights) to a0…a3. Each input is loaded once for the four rows,
// the accumulators stay in registers, and the rows are resliced to len(x)
// so the loop carries no bounds checks. It is a leaf function so that the
// register allocator sees only the loop's own values.
func dot4(x, w []int64, a0, a1, a2, a3 int64) (int64, int64, int64, int64) {
	n := len(x)
	w0 := w[:n]
	w1 := w[n : 2*n][:n]
	w2 := w[2*n : 3*n][:n]
	w3 := w[3*n : 4*n][:n]
	for j, v := range x {
		a0 += w0[j] * v
		a1 += w1[j] * v
		a2 += w2[j] * v
		a3 += w3[j] * v
	}
	return a0, a1, a2, a3
}

// InferBatch runs n inferences over densely packed rows: in holds n
// consecutive input vectors (stride InputSize) and out receives n consecutive
// output vectors (stride OutputSize). Results are identical to n sequential
// Infer calls; the batch form exists so datapath callers amortize the lookup
// and CPU-accounting overhead per batch instead of per query, and performs
// zero heap allocations in steady state.
func (p *Program) InferBatch(a *Arena, in, out []int64, n int) {
	is, os := p.InputSize(), p.OutputSize()
	if len(in) != n*is {
		panic(fmt.Sprintf("quant: batch input len %d, want %d×%d", len(in), n, is))
	}
	if len(out) != n*os {
		panic(fmt.Sprintf("quant: batch output len %d, want %d×%d", len(out), n, os))
	}
	a.Reserve(p.maxWidth)
	for q := 0; q < n; q++ {
		p.inferInto(a, in[q*is:(q+1)*is], out[q*os:(q+1)*os])
	}
}

// activate converts accumulator values (scale accScale) in place to the
// layer's output scale through the activation, using integer arithmetic only.
func (l *Layer) activate(v []int64) {
	switch l.Act {
	case nn.ReLU:
		for i, acc := range v {
			if acc < 0 {
				v[i] = 0
			} else {
				v[i] = l.rescale(acc)
			}
		}
	case nn.Tanh, nn.Sigmoid:
		for i, acc := range v {
			v[i] = l.lookup(acc)
		}
	default: // Linear
		for i, acc := range v {
			v[i] = l.rescale(acc)
		}
	}
}

// rescale converts v from accScale to outScale with round-half-away-from-
// zero, in integer arithmetic: (v·outScale ± accScale/2) / accScale with the
// division by multiply-high. Callers guarantee |v|·outScale stays within
// int64 (enforced by the bounded scales in Config).
func (l *Layer) rescale(v int64) int64 {
	if l.accScale == l.outScale {
		return v
	}
	n, half := v*l.outScale, l.accScale>>1
	if n >= 0 {
		return l.accDiv.quo(n + half)
	}
	return l.accDiv.quo(n - half)
}

// lookup evaluates the layer's LUT at accumulator value acc with linear
// interpolation, clamping outside the covered range (where tanh/sigmoid are
// saturated anyway).
func (l *Layer) lookup(acc int64) int64 {
	if acc <= l.tblMin {
		return l.table[0]
	}
	if acc >= l.tblMax {
		return l.table[len(l.table)-1]
	}
	// idx, rem = num / span, num % span; then (hi-lo)·rem / span.
	num := (acc - l.tblMin) * int64(len(l.table)-1)
	idx := l.spanDiv.quo(num)
	rem := num - idx*l.spanDiv.d
	lo := l.table[idx]
	hi := l.table[idx+1]
	return lo + l.spanDiv.quo((hi-lo)*rem)
}

// QuantizeInput converts float inputs to fixed point at InputScale, writing
// into dst (allocated when nil).
func (p *Program) QuantizeInput(in []float64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(in))
	}
	for i, x := range in {
		dst[i] = roundToInt(x * float64(p.InputScale))
	}
	return dst
}

// DequantizeOutput converts fixed-point outputs at OutputScale to floats,
// writing into dst (allocated when nil).
func (p *Program) DequantizeOutput(out []int64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(out))
	}
	for i, v := range out {
		dst[i] = float64(v) / float64(p.OutputScale)
	}
	return dst
}

// InferFloat is a convenience wrapper: float in, float out, with
// quantize/dequantize at the edges. The interior remains integer-only.
func (p *Program) InferFloat(in []float64) []float64 {
	qi := p.QuantizeInput(in, nil)
	qo := make([]int64, p.OutputSize())
	p.Infer(qi, qo)
	return p.DequantizeOutput(qo, nil)
}

// AccuracyLoss measures the mean absolute deviation between the float
// network and its quantized program over the given inputs, normalized by the
// observed float output range — the quantity plotted in Figure 7. It returns
// 0 for no inputs.
func AccuracyLoss(net *nn.Network, p *Program, inputs [][]float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	oMin, oMax := math.Inf(1), math.Inf(-1)
	var sum float64
	var count int
	fo := make([]float64, net.OutputSize())
	for _, in := range inputs {
		net.Forward(in, fo)
		qo := p.InferFloat(in)
		for i := range fo {
			sum += math.Abs(fo[i] - qo[i])
			count++
			if fo[i] < oMin {
				oMin = fo[i]
			}
			if fo[i] > oMax {
				oMax = fo[i]
			}
		}
	}
	rangeOut := oMax - oMin
	if rangeOut < 1e-9 {
		rangeOut = 1
	}
	return sum / float64(count) / rangeOut
}
