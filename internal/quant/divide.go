package quant

import "math/bits"

// divisor divides signed 64-bit numerators by one positive constant without a
// hardware division — the lowering a C compiler applies to the `/ span`
// constants of a generated snapshot module (Granlund & Montgomery, "Division
// by invariant integers using multiplication", PLDI 1994).
//
// For a divisor d that is not a power of two, with l = ⌈log2 d⌉ and
// m = ⌈2^(63+l)/d⌉, every magnitude u ≤ 2^63 satisfies
// ⌊u/d⌋ = ⌊m·u / 2^(63+l)⌋: the round-up error m·d − 2^(63+l) < d ≤ 2^l
// adds less than 1/d to u/d, which the fractional part of u/d (at most
// (d−1)/d) absorbs. m < 2^64, so one 64×64→128 multiply and a shift of its
// high word give the quotient. Powers of two (including 1) are a plain shift.
type divisor struct {
	d     int64  // the divisor itself
	m     uint64 // magic multiplier; 0 for a power of two
	shift uint   // right shift of the high word (or of u, when m == 0)
}

// newDivisor precomputes the invariant-division constants for d, which must
// be positive.
func newDivisor(d int64) divisor {
	if d <= 0 {
		panic("quant: divisor must be positive")
	}
	ud := uint64(d)
	l := uint(bits.Len64(ud - 1)) // ⌈log2 d⌉
	if ud&(ud-1) == 0 {
		return divisor{d: d, shift: l}
	}
	// 2^(63+l) as a 128-bit value is hi:lo = 2^(l-1):0, and 2^(l-1) < d
	// keeps the quotient within 64 bits.
	m, rem := bits.Div64(1<<(l-1), 0, ud)
	if rem != 0 {
		m++
	}
	return divisor{d: d, m: m, shift: l - 1}
}

// quo returns n / d with Go's truncate-toward-zero semantics for every int64
// n, math.MinInt64 included.
func (v divisor) quo(n int64) int64 {
	u := uint64(n)
	if n < 0 {
		u = -u // magnitude; math.MinInt64 maps to 2^63
	}
	var q uint64
	if v.m == 0 {
		q = u >> v.shift
	} else {
		hi, _ := bits.Mul64(u, v.m)
		q = hi >> v.shift
	}
	if n < 0 {
		return -int64(q)
	}
	return int64(q)
}
