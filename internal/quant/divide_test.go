package quant

import (
	"math"
	"math/rand"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

// refRescale and refLookup are the hardware-division formulas the inference
// path used before it switched to invariant division, kept as oracles: the
// generated snapshot module still spells them out with literal constants.
func refRescale(v, from, to int64) int64 {
	if from == to {
		return v
	}
	n := v * to
	if n >= 0 {
		return (n + from/2) / from
	}
	return (n - from/2) / from
}

func refLookup(l *Layer, acc int64) int64 {
	if acc <= l.tblMin {
		return l.table[0]
	}
	if acc >= l.tblMax {
		return l.table[len(l.table)-1]
	}
	span := l.tblMax - l.tblMin
	num := (acc - l.tblMin) * int64(len(l.table)-1)
	idx := num / span
	rem := num % span
	lo := l.table[idx]
	hi := l.table[idx+1]
	return lo + (hi-lo)*rem/span
}

// linearLayer quantizes a 1×1 Linear network whose layer rescales from
// accumulator scale `from` to output scale `to`.
func linearLayer(from, to int64) *Layer {
	cfg := Config{InputScale: from, WeightScale: 1, ActScale: 1, OutputScale: to, TableSize: 2}
	return Quantize(nn.New([]int{1, 1}, []nn.Activation{nn.Linear}, 1), cfg).Layers[0]
}

// checkDivide compares the invariant divisor for d with Go's / and % on n.
func checkDivide(t *testing.T, v divisor, n int64) {
	t.Helper()
	q := v.quo(n)
	if want := n / v.d; q != want {
		t.Fatalf("%d / %d: got %d, want %d (m=%#x shift=%d)", n, v.d, q, want, v.m, v.shift)
	}
	if r, want := n-q*v.d, n%v.d; r != want {
		t.Fatalf("%d %% %d: got %d, want %d", n, v.d, r, want)
	}
}

// edgeNumerators returns the numerators most likely to expose an off-by-one
// in the magic constant: the int64 extremes and the neighbourhood of
// multiples of d.
func edgeNumerators(d int64) []int64 {
	ns := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1000, math.MaxInt64 / d, math.MaxInt64/d - 1} {
		if k <= 0 || k > math.MaxInt64/d {
			continue
		}
		m := k * d
		ns = append(ns, m, m-1, -m, -m+1)
		if m < math.MaxInt64 {
			ns = append(ns, m+1, -m-1)
		}
	}
	return ns
}

func TestExactDivide(t *testing.T) {
	var ds []int64
	for d := int64(1); d <= 1000; d++ {
		ds = append(ds, d)
	}
	for k := uint(1); k <= 62; k++ {
		p := int64(1) << k
		ds = append(ds, p, p-1, p+1)
	}
	ds = append(ds, 1000, 4096*4096, 3*(1<<40), math.MaxInt64, math.MaxInt64-1)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		ds = append(ds, 1+r.Int63n(1<<62))
	}
	for _, d := range ds {
		v := newDivisor(d)
		if (d&(d-1) == 0) != (v.m == 0) {
			t.Fatalf("divisor %d: power-of-two path = %v", d, v.m == 0)
		}
		for _, n := range edgeNumerators(d) {
			checkDivide(t, v, n)
		}
		for i := 0; i < 20; i++ {
			checkDivide(t, v, int64(r.Uint64()))
			checkDivide(t, v, r.Int63n(1<<20)-1<<19)
		}
	}
}

func TestNewDivisorRejectsNonPositive(t *testing.T) {
	for _, d := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newDivisor(%d) must panic", d)
				}
			}()
			newDivisor(d)
		}()
	}
}

// FuzzExactDivide checks the invariant divisor against Go's / and % for
// arbitrary numerators and divisors in [1, 2^62]; odd pow2 selects the
// power-of-two (shift) path.
func FuzzExactDivide(f *testing.F) {
	f.Add(int64(0), uint64(3), uint8(0))
	f.Add(int64(math.MaxInt64), uint64(7), uint8(0))
	f.Add(int64(math.MinInt64), uint64(1<<62-1), uint8(0))
	f.Add(int64(math.MinInt64), uint64(0), uint8(1))
	f.Add(int64(-1), uint64(0), uint8(125))
	f.Add(int64(math.MinInt64+1), uint64(1<<24), uint8(0))
	f.Fuzz(func(t *testing.T, n int64, d uint64, pow2 uint8) {
		div := 1 + d%(1<<62)
		if pow2&1 == 1 {
			div = 1 << (uint(pow2>>1) % 63)
		}
		checkDivide(t, newDivisor(int64(div)), n)
	})
}

// TestLookupRescaleMatchReference quantizes one-layer networks under random
// configurations — table sizes 2…5000, table ranges, accumulator and output
// scales that are mostly not powers of two — and checks that lookup and
// rescale equal the division formulas bit for bit, over random accumulators,
// both clamp edges and the int64 extremes.
func TestLookupRescaleMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		cfg := Config{
			InputScale:  1 + r.Int63n(1<<16),
			WeightScale: 1 + r.Int63n(1<<16),
			ActScale:    1 + r.Int63n(1<<16),
			OutputScale: 1 + r.Int63n(1<<20),
			TableSize:   2 + r.Intn(4999),
			TableRange:  0.25 + 15.75*r.Float64(),
		}
		if trial%5 == 0 {
			cfg.WeightScale = 1 << uint(r.Intn(16))
			cfg.InputScale = 1 << uint(r.Intn(16))
		}
		act := nn.Activation(r.Intn(4))
		l := Quantize(nn.New([]int{1, 1}, []nn.Activation{act}, int64(trial)), cfg).Layers[0]

		accs := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
		if l.table != nil {
			accs = append(accs, l.tblMin-1, l.tblMin, l.tblMin+1, l.tblMax-1, l.tblMax, l.tblMax+1)
			for i := 0; i < 200; i++ {
				accs = append(accs, l.tblMin-10+r.Int63n(l.tblMax-l.tblMin+21))
			}
		}
		for i := 0; i < 200; i++ {
			accs = append(accs, r.Int63n(1<<40)-1<<39, int64(r.Uint64()))
		}
		for _, acc := range accs {
			if l.table != nil {
				if got, want := l.lookup(acc), refLookup(l, acc); got != want {
					t.Fatalf("cfg %+v: lookup(%d) = %d, reference %d", cfg, acc, got, want)
				}
			}
			if got, want := l.rescale(acc), refRescale(acc, l.accScale, l.outScale); got != want {
				t.Fatalf("cfg %+v: rescale(%d) = %d, reference %d", cfg, acc, got, want)
			}
		}
	}
}
