// Package l0 implements L0 sampling for turnstile (insertion-deletion)
// streams in the style of Jowhari, Sağlam and Tardos [26], the substrate of
// the paper's insertion-deletion algorithm (§5): an L0 sampler processes a
// stream of coordinate updates to a vector x and, at query time, outputs a
// (near-)uniform sample from the non-zero coordinates of x.
//
// The construction is the classic three-layer one:
//
//  1. OneSparse — exact recovery of a vector with at most one non-zero
//     coordinate via (count, index-weighted sum, polynomial fingerprint);
//  2. SSparse — recovery of vectors with at most s non-zero coordinates by
//     hashing coordinates into O(s) OneSparse cells across O(log 1/δ) rows;
//  3. Sampler — geometric subsampling levels; level ℓ sketches the
//     coordinates whose pairwise-independent hash falls below 2^61/2^ℓ, and
//     the query returns the minimum-hash coordinate of the deepest
//     recoverable level.
//
// # Memory layout
//
// A sampler is a few large flat arrays, not a tree of small objects.  A
// OneSparse holds its fingerprint by value, so a cell is four words and no
// pointer.  An SSparse keeps its cells in one row-major []OneSparse and its
// row hashes in one []hashing.Pairwise, and a Sampler keeps its levels in
// one []SSparse whose cell and hash arrays are windows of one backing
// array each.  A sampler over a 2^17 universe is thus about 15 KB in four
// allocations, and the garbage collector has no per-cell pointers to
// trace.  Updates allocate nothing.
//
// An update touches one cell per row at each level it reaches, and every
// cell needs r^index for its own fingerprint point r.  SSparse.Update
// computes those powers hashing.PowLanes rows at a time with
// hashing.PowMod61Lanes, one square-and-multiply pass whose independent
// chains overlap; a last group of fewer rows is padded.  Modular powers
// are exact, so the state is the same as with one PowMod61 per cell.
//
// Two orders are fixed because the core turnstile snapshot format depends
// on them: construction draws from the RNG level by level, row by row, a
// row's cells before its hash, and Sampler.Cells visits cells
// level-major, then row-major.
package l0

import (
	"feww/internal/hashing"
	"feww/internal/xrand"
)

// OneSparse exactly recovers a turnstile vector that has at most one
// non-zero coordinate, and detects (with high probability) when it has
// more.  Coordinates are uint64 indices; counts are signed.
type OneSparse struct {
	count int64 // sum of deltas (ℓ in the literature)
	sum   int64 // sum of delta * index — safe for index*|count| < 2^63
	fp    hashing.Fingerprint
}

// NewOneSparse returns an empty 1-sparse recoverer.
func NewOneSparse(rng *xrand.RNG) *OneSparse {
	return &OneSparse{fp: hashing.MakeFingerprint(rng)}
}

// Update applies x[index] += delta.
func (o *OneSparse) Update(index uint64, delta int64) {
	o.updatePow(index, delta, hashing.PowMod61(o.fp.Point(), index))
}

// updatePow is Update with pow = r^index mod p already computed, r being
// the cell's fingerprint point.
func (o *OneSparse) updatePow(index uint64, delta int64, pow uint64) {
	o.count += delta
	o.sum += delta * int64(index)
	o.fp.UpdatePow(pow, delta)
}

// Recover attempts to decode the sketched vector as a single non-zero
// coordinate.  ok is true only when the vector is exactly {index: count}
// (up to the fingerprint's false-positive probability <= U/p).
func (o *OneSparse) Recover() (index uint64, count int64, ok bool) {
	if o.count == 0 {
		return 0, 0, false
	}
	if o.sum%o.count != 0 {
		return 0, 0, false
	}
	idx := o.sum / o.count
	if idx < 0 {
		return 0, 0, false
	}
	if !o.fp.Matches(uint64(idx), o.count) {
		return 0, 0, false
	}
	return uint64(idx), o.count, true
}

// Zero reports whether the sketch is consistent with the all-zero vector.
func (o *OneSparse) Zero() bool {
	return o.count == 0 && o.sum == 0 && o.fp.Zero()
}

// Clone returns an independent copy.  A OneSparse holds no pointers, so a
// plain value copy is independent too; the SSparse peeling decoder copies
// whole rows that way.
func (o *OneSparse) Clone() *OneSparse {
	cp := *o
	return &cp
}

// State returns the cell's mutable state: the delta sum, the index-weighted
// sum, and the fingerprint accumulator.  The fingerprint's evaluation point
// is not part of the state — it is derived from the construction RNG, so a
// checkpoint needs only these three words per cell.
func (o *OneSparse) State() (count, sum int64, acc uint64) {
	return o.count, o.sum, o.fp.Acc()
}

// SetState overwrites the cell's mutable state; used by snapshot restore on
// a freshly constructed (hence hash-compatible) cell.
func (o *OneSparse) SetState(count, sum int64, acc uint64) {
	o.count, o.sum = count, sum
	o.fp.SetAcc(acc)
}

// SpaceWords reports the words of state held by the recoverer.
func (o *OneSparse) SpaceWords() int { return 2 + o.fp.SpaceWords() }
