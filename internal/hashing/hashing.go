// Package hashing provides the k-wise independent hash families and
// polynomial fingerprints that the L0 samplers (paper §5, Jowhari et al.
// [26]) and the sketch baselines (CountMin, CountSketch) are built on.
//
// All arithmetic is over the Mersenne prime field F_p with p = 2^61 - 1,
// which admits fast modular reduction without division.
package hashing

import (
	"math/bits"

	"feww/internal/xrand"
)

// MersennePrime61 is the field modulus p = 2^61 - 1.
const MersennePrime61 uint64 = (1 << 61) - 1

// MulMod61 returns a*b mod 2^61-1 for a, b < 2^61-1.
//
// With p = 2^61-1, x = (x >> 61)*2^61 + (x & p) ≡ (x >> 61) + (x & p).
// For a, b < p the product is below 2^122, so x >> 61 is (hi << 3) |
// (lo >> 61) without loss, the sum is below 2p, and one conditional
// subtraction finishes the reduction.
func MulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (lo & MersennePrime61) + (hi<<3 | lo>>61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// AddMod61 returns a+b mod 2^61-1 for a, b < 2^61-1.
func AddMod61(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// SubMod61 returns a-b mod 2^61-1 for a, b < 2^61-1.
func SubMod61(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + MersennePrime61 - b
}

// PowMod61 returns base^exp mod 2^61-1 by square-and-multiply.  It
// multiplies unconditionally and selects, so a random exponent bit costs a
// conditional move, not a mispredicted branch.
func PowMod61(base, exp uint64) uint64 {
	result := uint64(1)
	base %= MersennePrime61
	for exp > 0 {
		t := MulMod61(result, base)
		if exp&1 == 1 {
			result = t
		}
		base = MulMod61(base, base)
		exp >>= 1
	}
	return result
}

// PowLanes is how many bases PowMod61Lanes takes at once; its body is
// unrolled for exactly three, because Go keeps scalars, not arrays, in
// registers.  Three chains keep their nine live values in registers on
// amd64; a four-lane pass spills, and on a 2-CPU amd64 VM it took longer
// per base than three.
const PowLanes = 3

// PowMod61Lanes returns base[k]^exp mod 2^61-1 for PowLanes bases that share
// one exponent, in a single square-and-multiply pass over the exponent's
// bits.  The chains are independent, so their multiplies overlap in the
// pipeline where separate PowMod61 calls would each wait out their own
// chain.  Every result equals PowMod61(base[k], exp).
func PowMod61Lanes(base [PowLanes]uint64, exp uint64) [PowLanes]uint64 {
	b0, b1, b2 := base[0]%MersennePrime61, base[1]%MersennePrime61, base[2]%MersennePrime61
	r0, r1, r2 := uint64(1), uint64(1), uint64(1)
	for exp > 0 {
		t0, t1, t2 := MulMod61(r0, b0), MulMod61(r1, b1), MulMod61(r2, b2)
		if exp&1 == 1 {
			r0, r1, r2 = t0, t1, t2
		}
		b0 = MulMod61(b0, b0)
		b1 = MulMod61(b1, b1)
		b2 = MulMod61(b2, b2)
		exp >>= 1
	}
	return [PowLanes]uint64{r0, r1, r2}
}

// InvMod61 returns the multiplicative inverse of a mod 2^61-1 (a != 0).
// p is prime, so a^(p-2) = a^{-1}.
func InvMod61(a uint64) uint64 {
	return PowMod61(a, MersennePrime61-2)
}

// Poly is a degree-(k-1) polynomial over F_p, giving a k-wise independent
// hash family: h(x) = c_{k-1} x^{k-1} + ... + c_1 x + c_0 mod p.
type Poly struct {
	coeffs []uint64
}

// NewPoly draws a uniform member of the k-wise independent family.
// k must be >= 1; k = 2 gives the pairwise-independent family used by the
// L0 sampler's level assignment.
func NewPoly(rng *xrand.RNG, k int) *Poly {
	if k < 1 {
		panic("hashing: NewPoly with k < 1")
	}
	c := make([]uint64, k)
	for i := range c {
		c[i] = rng.Uint64n(MersennePrime61)
	}
	// Guarantee the polynomial is non-constant when k >= 2 so the family
	// retains full pairwise independence over distinct points.
	if k >= 2 && c[k-1] == 0 {
		c[k-1] = 1
	}
	return &Poly{coeffs: c}
}

// Hash evaluates the polynomial at x (Horner's rule), returning a value in
// [0, p).
func (h *Poly) Hash(x uint64) uint64 {
	x %= MersennePrime61
	acc := uint64(0)
	for i := len(h.coeffs) - 1; i >= 0; i-- {
		acc = AddMod61(MulMod61(acc, x), h.coeffs[i])
	}
	return acc
}

// HashRange maps x into [0, m) by multiply-high on the field hash, which
// avoids the modulo bias of h(x) % m for m far below p.
func (h *Poly) HashRange(x, m uint64) uint64 { return toRange(h.Hash(x), m) }

// toRange maps a field hash into [0, m) by multiply-high.
func toRange(h, m uint64) uint64 {
	if m == 0 {
		panic("hashing: HashRange with m == 0")
	}
	hi, _ := bits.Mul64(h<<3, m) // spread the 61-bit hash over 64 bits
	return hi
}

// Sign returns ±1 from one hash bit — the 4-wise independent sign hash used
// by CountSketch.
func (h *Poly) Sign(x uint64) int64 {
	if h.Hash(x)&1 == 1 {
		return 1
	}
	return -1
}

// SpaceWords reports the words of state held by the hash function.
func (h *Poly) SpaceWords() int { return len(h.coeffs) }

// Pairwise is the k = 2 member of Poly's family, h(x) = c1*x + c0 mod p,
// held by value so a sketch can embed it in a flat array instead of
// reaching it through two pointers.  NewPairwise draws exactly what
// NewPoly(rng, 2) draws, in the same order, so swapping one for the other
// changes no random choice and no hash value.
type Pairwise struct {
	c0, c1 uint64
}

// NewPairwise draws a uniform member of the pairwise-independent family.
func NewPairwise(rng *xrand.RNG) Pairwise {
	c0 := rng.Uint64n(MersennePrime61)
	c1 := rng.Uint64n(MersennePrime61)
	if c1 == 0 { // non-constant, as NewPoly guarantees for k >= 2
		c1 = 1
	}
	return Pairwise{c0: c0, c1: c1}
}

// Hash evaluates h at x, returning a value in [0, p).
func (h Pairwise) Hash(x uint64) uint64 {
	return AddMod61(MulMod61(h.c1, x%MersennePrime61), h.c0)
}

// HashRange maps x into [0, m) exactly as Poly.HashRange does.
func (h Pairwise) HashRange(x, m uint64) uint64 { return toRange(h.Hash(x), m) }

// SpaceWords reports the words of state held by the hash function.
func (h Pairwise) SpaceWords() int { return 2 }

// Fingerprint maintains the polynomial fingerprint F = sum_i c_i * r^i mod p
// of an integer vector c under turnstile updates.  It is the third component
// of the 1-sparse recovery test in the L0 sampler: a claimed singleton
// (index i, count c) is accepted only if F == c * r^i mod p, which fails for
// non-singletons with probability <= universe/p.
type Fingerprint struct {
	r   uint64
	acc uint64
}

// NewFingerprint draws a random evaluation point r in [1, p).
func NewFingerprint(rng *xrand.RNG) *Fingerprint {
	f := MakeFingerprint(rng)
	return &f
}

// MakeFingerprint is NewFingerprint by value, for sketches that hold their
// fingerprints in a flat cell array.  It draws the same evaluation point.
func MakeFingerprint(rng *xrand.RNG) Fingerprint {
	return Fingerprint{r: 1 + rng.Uint64n(MersennePrime61-1)}
}

// Update applies c_i += delta for index i >= 0.
func (f *Fingerprint) Update(i uint64, delta int64) {
	f.UpdatePow(PowMod61(f.r, i), delta)
}

// Point returns the evaluation point r.
func (f *Fingerprint) Point() uint64 { return f.r }

// UpdatePow is Update for a caller that already holds pow = r^i mod p,
// typically from one PowMod61Lanes pass over several fingerprints.
func (f *Fingerprint) UpdatePow(pow uint64, delta int64) {
	f.acc = AddMod61(f.acc, MulMod61(modDelta(delta), pow))
}

// Matches reports whether the fingerprint is consistent with the vector
// being exactly {i: count} (a single non-zero coordinate).
func (f *Fingerprint) Matches(i uint64, count int64) bool {
	want := MulMod61(modDelta(count), PowMod61(f.r, i))
	return f.acc == want
}

// Zero reports whether the fingerprint is consistent with the zero vector.
func (f *Fingerprint) Zero() bool { return f.acc == 0 }

// Acc returns the accumulator — the fingerprint's only mutable state (the
// evaluation point r is fixed at construction, so checkpointing a
// fingerprint needs nothing else when the constructor is replayed from the
// same RNG).
func (f *Fingerprint) Acc() uint64 { return f.acc }

// SetAcc overwrites the accumulator; used by snapshot restore after the
// construction RNG has re-derived the evaluation point.
func (f *Fingerprint) SetAcc(acc uint64) { f.acc = acc }

// Clone returns an independent copy (same evaluation point and state),
// used by peeling decoders that subtract recovered coordinates from a
// scratch copy.
func (f *Fingerprint) Clone() *Fingerprint {
	cp := *f
	return &cp
}

// SpaceWords reports the words of state held by the fingerprint.
func (f *Fingerprint) SpaceWords() int { return 2 }

// modDelta maps a signed delta into F_p.
func modDelta(d int64) uint64 {
	if d >= 0 {
		return uint64(d) % MersennePrime61
	}
	return SubMod61(0, uint64(-d)%MersennePrime61)
}

// MultiplyShift is the classic 2-approximately-universal multiply-shift
// hash into [0, 2^bits).  It is faster than Poly and used where speed
// matters more than full pairwise independence (bucket spreading in
// benchmarks).
type MultiplyShift struct {
	a    uint64
	bits uint
}

// NewMultiplyShift draws a random odd multiplier for a 2^bits range.
func NewMultiplyShift(rng *xrand.RNG, rangeBits uint) MultiplyShift {
	if rangeBits == 0 || rangeBits > 64 {
		panic("hashing: NewMultiplyShift with rangeBits out of (0, 64]")
	}
	return MultiplyShift{a: rng.Uint64() | 1, bits: rangeBits}
}

// Hash maps x into [0, 2^bits).
func (m MultiplyShift) Hash(x uint64) uint64 {
	return (m.a * x) >> (64 - m.bits)
}
