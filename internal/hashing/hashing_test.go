package hashing

import (
	"math/big"
	"testing"
	"testing/quick"

	"feww/internal/xrand"
)

func TestMulMod61AgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		got := MulMod61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMulMod61Extremes covers the operands where the one-subtraction
// reduction is tightest: products near (p-1)^2 and sums landing on p.
func TestMulMod61Extremes(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	ops := []uint64{0, 1, 2, 3, 1 << 30, 1 << 60, MersennePrime61 / 2, MersennePrime61 - 2, MersennePrime61 - 1}
	for _, a := range ops {
		for _, b := range ops {
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, p)
			if got := MulMod61(a, b); got != want.Uint64() {
				t.Fatalf("MulMod61(%d, %d) = %d, want %d", a, b, got, want.Uint64())
			}
		}
	}
}

func TestAddSubMod61(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		sum := AddMod61(a, b)
		if sum >= MersennePrime61 {
			return false
		}
		// (a + b) - b == a
		return SubMod61(sum, b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowInvMod61(t *testing.T) {
	f := func(a uint64) bool {
		a = a%(MersennePrime61-1) + 1 // non-zero
		return MulMod61(a, InvMod61(a)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if PowMod61(3, 0) != 1 {
		t.Error("x^0 != 1")
	}
	if PowMod61(2, 61) != MulMod61(PowMod61(2, 60), 2) {
		t.Error("PowMod61 inconsistent")
	}
}

func TestPolyHashRange(t *testing.T) {
	rng := xrand.New(1)
	h := NewPoly(rng, 3)
	f := func(x, m uint64) bool {
		if m == 0 {
			m = 1
		}
		m = m%100000 + 1
		return h.HashRange(x, m) < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolyHashSpread(t *testing.T) {
	rng := xrand.New(2)
	h := NewPoly(rng, 2)
	const buckets = 16
	counts := make([]int, buckets)
	for x := uint64(0); x < 16000; x++ {
		counts[h.HashRange(x, buckets)]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("bucket %d badly skewed: %d/16000", i, c)
		}
	}
}

func TestPolyDifferentInstancesDiffer(t *testing.T) {
	rng := xrand.New(3)
	h1, h2 := NewPoly(rng, 2), NewPoly(rng, 2)
	same := 0
	for x := uint64(0); x < 100; x++ {
		if h1.Hash(x) == h2.Hash(x) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("independent hash functions agree on %d/100 points", same)
	}
}

func TestSignBalance(t *testing.T) {
	rng := xrand.New(4)
	h := NewPoly(rng, 4)
	pos := 0
	for x := uint64(0); x < 10000; x++ {
		s := h.Sign(x)
		if s != 1 && s != -1 {
			t.Fatalf("Sign returned %d", s)
		}
		if s == 1 {
			pos++
		}
	}
	if pos < 4500 || pos > 5500 {
		t.Fatalf("sign hash unbalanced: %d/10000 positive", pos)
	}
}

func TestFingerprintSingleton(t *testing.T) {
	rng := xrand.New(5)
	fp := NewFingerprint(rng)
	if !fp.Zero() {
		t.Fatal("fresh fingerprint not zero")
	}
	fp.Update(42, 3)
	if !fp.Matches(42, 3) {
		t.Fatal("fingerprint does not match its own singleton")
	}
	if fp.Matches(42, 2) || fp.Matches(41, 3) {
		t.Fatal("fingerprint matched a wrong singleton")
	}
}

func TestFingerprintCancellation(t *testing.T) {
	rng := xrand.New(6)
	fp := NewFingerprint(rng)
	updates := [][2]int64{{10, 5}, {20, -2}, {30, 7}}
	for _, u := range updates {
		fp.Update(uint64(u[0]), u[1])
	}
	for _, u := range updates {
		fp.Update(uint64(u[0]), -u[1])
	}
	if !fp.Zero() {
		t.Fatal("fingerprint not zero after full cancellation")
	}
}

func TestFingerprintRejectsNonSingleton(t *testing.T) {
	rng := xrand.New(7)
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		fp := NewFingerprint(rng)
		fp.Update(uint64(i), 1)
		fp.Update(uint64(i+1000), 1)
		// A two-element vector must not look like any plausible singleton.
		looksSingleton := fp.Matches(uint64(i), 2) || fp.Matches(uint64(i+1000), 2) ||
			fp.Matches(uint64(i)+500, 2)
		if !looksSingleton {
			rejected++
		}
	}
	if rejected < trials-2 {
		t.Fatalf("fingerprint accepted non-singletons: only %d/%d rejected", rejected, trials)
	}
}

func TestFingerprintNegativeCounts(t *testing.T) {
	rng := xrand.New(8)
	fp := NewFingerprint(rng)
	fp.Update(7, -4)
	if !fp.Matches(7, -4) {
		t.Fatal("fingerprint does not handle negative counts")
	}
}

func TestMultiplyShiftRange(t *testing.T) {
	rng := xrand.New(9)
	ms := NewMultiplyShift(rng, 10)
	for x := uint64(0); x < 10000; x++ {
		if ms.Hash(x) >= 1024 {
			t.Fatalf("MultiplyShift out of range: %d", ms.Hash(x))
		}
	}
}

func TestNewPolyPanics(t *testing.T) {
	rng := xrand.New(10)
	defer func() {
		if recover() == nil {
			t.Error("NewPoly(rng, 0) did not panic")
		}
	}()
	NewPoly(rng, 0)
}

// TestPairwiseMatchesPoly2: NewPairwise draws what NewPoly(rng, 2) draws
// and evaluates the same function, so swapping them changes nothing.
func TestPairwiseMatchesPoly2(t *testing.T) {
	a, b := xrand.New(21), xrand.New(21)
	for i := 0; i < 50; i++ {
		poly, pw := NewPoly(a, 2), NewPairwise(b)
		for _, x := range []uint64{0, 1, 2, 12345, MersennePrime61 - 1, MersennePrime61, 1<<64 - 1} {
			if poly.Hash(x) != pw.Hash(x) || poly.HashRange(x, 8) != pw.HashRange(x, 8) {
				t.Fatalf("draw %d: Pairwise and Poly(2) disagree at x = %d", i, x)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("NewPairwise consumed a different number of draws than NewPoly(rng, 2)")
	}
}

func TestPowMod61LanesMatchesPowMod61(t *testing.T) {
	f := func(base [PowLanes]uint64, exp uint64) bool {
		got := PowMod61Lanes(base, exp)
		for k := range base {
			if got[k] != PowMod61(base[k], exp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	var base [PowLanes]uint64
	base[0] = MersennePrime61 // reduced to 0, and 0^0 = 1
	for k, got := range PowMod61Lanes(base, 0) {
		if got != 1 {
			t.Fatalf("lane %d: x^0 = %d, want 1", k, got)
		}
	}
}

var powSink uint64

// BenchmarkPowMod61 and BenchmarkPowMod61Lanes raise PowLanes bases to one
// 17-bit exponent, the index width of the turnstile edge samplers: one
// PowMod61 call per base against one interleaved pass.
func BenchmarkPowMod61(b *testing.B) {
	rng := xrand.New(23)
	var base [PowLanes]uint64
	for k := range base {
		base[k] = 1 + rng.Uint64n(MersennePrime61-1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp := uint64(i) & (1<<17 - 1)
		for _, x := range base {
			powSink += PowMod61(x, exp)
		}
	}
}

func BenchmarkPowMod61Lanes(b *testing.B) {
	rng := xrand.New(23)
	var base [PowLanes]uint64
	for k := range base {
		base[k] = 1 + rng.Uint64n(MersennePrime61-1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range PowMod61Lanes(base, uint64(i)&(1<<17-1)) {
			powSink += x
		}
	}
}

// TestFingerprintUpdatePow: UpdatePow with r^i is Update, and
// MakeFingerprint draws NewFingerprint's point.
func TestFingerprintUpdatePow(t *testing.T) {
	a, b := xrand.New(22), xrand.New(22)
	f, g := NewFingerprint(a), MakeFingerprint(b)
	if f.Point() != g.Point() {
		t.Fatal("MakeFingerprint drew a different point")
	}
	for i, delta := range []int64{1, -1, 5, -3, 1} {
		idx := uint64(1000 + 37*i)
		f.Update(idx, delta)
		g.UpdatePow(PowMod61(g.Point(), idx), delta)
	}
	if f.Acc() != g.Acc() {
		t.Fatalf("UpdatePow acc %d, Update acc %d", g.Acc(), f.Acc())
	}
}
