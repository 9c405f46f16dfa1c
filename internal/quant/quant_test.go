package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

func randInputs(r *rand.Rand, n, dim int, scale float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = (r.Float64()*2 - 1) * scale
		}
	}
	return out
}

func TestQuantizeMatchesFloatCloselyAurora(t *testing.T) {
	// The Aurora architecture with tanh activations — the hardest case for
	// integer quantization because of the LUTs.
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 11)
	p := Quantize(net, DefaultConfig())
	r := rand.New(rand.NewSource(1))
	loss := AccuracyLoss(net, p, randInputs(r, 200, 30, 1))
	if loss > 0.02 {
		t.Errorf("accuracy loss = %.4f, want ≤ 0.02 (the paper's ~2%%)", loss)
	}
}

func TestQuantizeReLUAndSigmoid(t *testing.T) {
	net := nn.New([]int{8, 12, 4}, []nn.Activation{nn.ReLU, nn.Sigmoid}, 5)
	p := Quantize(net, DefaultConfig())
	r := rand.New(rand.NewSource(2))
	loss := AccuracyLoss(net, p, randInputs(r, 200, 8, 1))
	if loss > 0.02 {
		t.Errorf("accuracy loss = %.4f, want ≤ 0.02", loss)
	}
}

func TestOutputScaleControlsGranularity(t *testing.T) {
	// With OutputScale 1 a [0,1] sigmoid output collapses to {0,1} — the
	// paper's motivating failure. Scaling to 1000 fixes it.
	net := nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Sigmoid}, 3)
	r := rand.New(rand.NewSource(3))
	inputs := randInputs(r, 300, 4, 1)

	coarse := DefaultConfig()
	coarse.OutputScale = 1
	lossCoarse := AccuracyLoss(net, Quantize(net, coarse), inputs)

	fine := DefaultConfig() // C = 1000
	lossFine := AccuracyLoss(net, Quantize(net, fine), inputs)

	if lossFine >= lossCoarse {
		t.Errorf("scaling layer must reduce loss: C=1 loss %.4f, C=1000 loss %.4f", lossCoarse, lossFine)
	}
	if lossFine > 0.02 {
		t.Errorf("C=1000 loss = %.4f, want ≤ 2%%", lossFine)
	}
	// And the coarse output really is binary.
	qo := make([]int64, 1)
	prog := Quantize(net, coarse)
	for _, in := range inputs[:50] {
		prog.Infer(prog.QuantizeInput(in, nil), qo)
		if qo[0] != 0 && qo[0] != 1 {
			t.Fatalf("C=1 sigmoid output = %d, expected collapse to {0,1}", qo[0])
		}
	}
}

func TestInferIsDeterministic(t *testing.T) {
	net := nn.New([]int{6, 10, 2}, []nn.Activation{nn.Tanh, nn.Linear}, 9)
	p := Quantize(net, DefaultConfig())
	in := p.QuantizeInput([]float64{0.1, -0.2, 0.3, 0.5, -0.9, 0.7}, nil)
	a, b := make([]int64, 2), make([]int64, 2)
	p.Infer(in, a)
	p.Infer(in, b)
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("repeated inference must be bit-identical")
	}
}

func TestInferSizePanics(t *testing.T) {
	net := nn.New([]int{2, 2}, []nn.Activation{nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	for _, fn := range []func(){
		func() { p.Infer(make([]int64, 1), make([]int64, 2)) },
		func() { p.Infer(make([]int64, 2), make([]int64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("size mismatch must panic")
				}
			}()
			fn()
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	net := nn.New([]int{2, 2}, []nn.Activation{nn.Linear}, 1)
	bad := []Config{
		{InputScale: 0, WeightScale: 1, ActScale: 1, OutputScale: 1, TableSize: 4},
		{InputScale: 1, WeightScale: 1, ActScale: 1, OutputScale: -5, TableSize: 4},
		{InputScale: 1, WeightScale: 1, ActScale: 1, OutputScale: 1, TableSize: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d must panic", i)
				}
			}()
			Quantize(net, cfg)
		}()
	}
}

func TestRescaleRounding(t *testing.T) {
	cases := []struct {
		v, from, to, want int64
	}{
		{100, 100, 1000, 1000},
		{150, 100, 10, 15},
		{154, 100, 10, 15}, // 15.4 rounds to 15
		{156, 100, 10, 16}, // 15.6 rounds to 16
		{-154, 100, 10, -15},
		{-156, 100, 10, -16},
		{7, 7, 7, 7}, // same scale short-circuits
	}
	for _, c := range cases {
		if got := linearLayer(c.from, c.to).rescale(c.v); got != c.want {
			t.Errorf("rescale(%d, %d, %d) = %d, want %d", c.v, c.from, c.to, got, c.want)
		}
	}
}

func TestLookupTableAccuracy(t *testing.T) {
	// Direct LUT check: a 1-layer tanh net with identity weight.
	net := nn.New([]int{1, 1}, []nn.Activation{nn.Tanh}, 1)
	net.Layers[0].W[0][0] = 1
	net.Layers[0].B[0] = 0
	cfg := DefaultConfig()
	cfg.OutputScale = 1 << 16
	p := Quantize(net, cfg)
	for x := -10.0; x <= 10.0; x += 0.37 {
		got := p.InferFloat([]float64{x})[0]
		want := math.Tanh(x)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("tanh(%v): LUT=%v float=%v", x, got, want)
		}
	}
}

func TestLookupClampsOutsideRange(t *testing.T) {
	net := nn.New([]int{1, 1}, []nn.Activation{nn.Sigmoid}, 1)
	net.Layers[0].W[0][0] = 1
	net.Layers[0].B[0] = 0
	p := Quantize(net, DefaultConfig())
	hi := p.InferFloat([]float64{50})[0]
	lo := p.InferFloat([]float64{-50})[0]
	if math.Abs(hi-1) > 1e-3 || math.Abs(lo) > 1e-3 {
		t.Errorf("saturated sigmoid = %v / %v, want ≈ 1 / 0", hi, lo)
	}
}

func TestQuantizeInputDequantizeRoundTrip(t *testing.T) {
	net := nn.New([]int{3, 1}, []nn.Activation{nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	in := []float64{0.125, -0.5, 0.75}
	q := p.QuantizeInput(in, nil)
	for i := range in {
		back := float64(q[i]) / float64(p.InputScale)
		if math.Abs(back-in[i]) > 1.0/float64(p.InputScale) {
			t.Errorf("round trip %v -> %v", in[i], back)
		}
	}
	// dst reuse path.
	dst := make([]int64, 3)
	if got := p.QuantizeInput(in, dst); &got[0] != &dst[0] {
		t.Error("QuantizeInput must reuse provided buffer")
	}
}

func TestMACsAndParams(t *testing.T) {
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	if p.MACs() != net.MACs() {
		t.Errorf("MACs = %d, want %d", p.MACs(), net.MACs())
	}
	if p.NumParams() != net.NumParams() {
		t.Errorf("NumParams = %d, want %d", p.NumParams(), net.NumParams())
	}
}

func TestAccuracyLossEmptyInputs(t *testing.T) {
	net := nn.New([]int{2, 1}, []nn.Activation{nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	if AccuracyLoss(net, p, nil) != 0 {
		t.Error("no inputs must yield 0 loss")
	}
}

// Property: increasing OutputScale never makes accuracy (much) worse across
// random small networks.
func TestScalingMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net := nn.New([]int{4, 6, 1}, []nn.Activation{nn.Tanh, nn.Sigmoid}, seed)
		inputs := randInputs(r, 60, 4, 1)
		cfg := DefaultConfig()
		cfg.OutputScale = 10
		low := AccuracyLoss(net, Quantize(net, cfg), inputs)
		cfg.OutputScale = 10000
		high := AccuracyLoss(net, Quantize(net, cfg), inputs)
		return high <= low+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInferNoAlloc(t *testing.T) {
	net := nn.New([]int{30, 32, 16, 1}, []nn.Activation{nn.Tanh, nn.Tanh, nn.Linear}, 1)
	p := Quantize(net, DefaultConfig())
	in := make([]int64, 30)
	out := make([]int64, 1)
	allocs := testing.AllocsPerRun(100, func() { p.Infer(in, out) })
	if allocs != 0 {
		t.Errorf("Infer allocates %v times, want 0 (kernel fast path)", allocs)
	}
}

// benchSink keeps the benchmarked inference from being optimized away.
var benchSink int64

// benchInfer times Infer on the given architecture with the real policies'
// activations, cycling through seeded random state vectors so accumulators
// and LUT lookups vary as they do on the query path (all-zero inputs would
// reduce every accumulator to its bias).
func benchInfer(b *testing.B, sizes []int) {
	acts := []nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh}
	p := Quantize(nn.New(sizes, acts, 1), DefaultConfig())
	r := rand.New(rand.NewSource(1))
	const nIn = 256 // power of two: the cycle index is a mask
	ins := make([][]int64, nIn)
	for i := range ins {
		ins[i] = p.QuantizeInput(randomInput(r, sizes[0]), nil)
	}
	out := make([]int64, p.OutputSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Infer(ins[i&(nIn-1)], out)
		benchSink += out[0]
	}
}

func BenchmarkInferAuroraSnapshot(b *testing.B) { benchInfer(b, []int{30, 32, 16, 1}) }

func BenchmarkInferMOCCSnapshot(b *testing.B) { benchInfer(b, []int{30, 64, 32, 1}) }
