package l0

import (
	"math/bits"

	"feww/internal/hashing"
	"feww/internal/xrand"
)

// Sampler is an L0 sampler over the coordinate universe [0, universe): after
// an arbitrary sequence of turnstile updates it returns a near-uniform
// sample from the non-zero coordinates of the maintained vector, or ok =
// false if the sketch fails (probability delta, controlled by the sparsity
// and row parameters) or the vector is zero.
//
// The paper invokes these samplers with failure probability delta =
// 1/(n^10 d); here delta is set through the s and rows knobs chosen by
// Params.
type Sampler struct {
	universe uint64
	level    []SSparse
	lvlHash  hashing.Pairwise // level assignment
	minHash  hashing.Pairwise // tie-break hash for uniform pick within a level
}

// Params selects the internal dimensions of a Sampler.
type Params struct {
	Sparsity int // s of the per-level s-sparse recoverer (>= 1)
	Rows     int // rows of the per-level s-sparse recoverer (>= 1)
}

// DefaultParams gives a sampler with ~2^-6 per-query failure probability,
// adequate for the experiment regime; the paper's asymptotic setting
// corresponds to Sparsity, Rows = Θ(log(n d)).
var DefaultParams = Params{Sparsity: 4, Rows: 3}

// NewSampler returns an L0 sampler over [0, universe).
func NewSampler(rng *xrand.RNG, universe uint64, p Params) *Sampler {
	if universe == 0 {
		panic("l0: NewSampler with universe == 0")
	}
	if p.Sparsity < 1 || p.Rows < 1 {
		panic("l0: NewSampler with invalid params")
	}
	levels := bits.Len64(universe) + 1
	s := &Sampler{
		universe: universe,
		level:    make([]SSparse, levels),
		lvlHash:  hashing.NewPairwise(rng),
		minHash:  hashing.NewPairwise(rng),
	}
	// Every level's cells and row hashes are windows of one array each.
	perLevel := p.Rows * 2 * p.Sparsity
	cells := make([]OneSparse, levels*perLevel)
	hash := make([]hashing.Pairwise, levels*p.Rows)
	for i := range s.level {
		s.level[i].init(rng,
			cells[i*perLevel:(i+1)*perLevel:(i+1)*perLevel],
			hash[i*p.Rows:(i+1)*p.Rows:(i+1)*p.Rows])
	}
	return s
}

// levelOf returns the deepest level that index participates in: index i is
// sketched at levels 0..levelOf(i).  Level membership halves per level, so
// level ℓ holds an expected universe/2^ℓ coordinates.
func (s *Sampler) levelOf(index uint64) int {
	h := s.lvlHash.Hash(index)
	// Number of leading "all below threshold" halvings: count how many times
	// h < p/2^j.  Equivalent to the position of the highest set bit.
	lvl := 0
	threshold := hashing.MersennePrime61 / 2
	for lvl < len(s.level)-1 && h < threshold {
		lvl++
		threshold /= 2
	}
	return lvl
}

// Update applies x[index] += delta for index < universe.
func (s *Sampler) Update(index uint64, delta int64) {
	if index >= s.universe {
		panic("l0: Update index out of universe")
	}
	deepest := s.levelOf(index)
	for lvl := 0; lvl <= deepest; lvl++ {
		s.level[lvl].Update(index, delta)
	}
}

// Sample returns a near-uniform non-zero coordinate of the maintained
// vector together with its count.  ok is false if the vector is zero or
// recovery failed at every level.
//
// The query walks from the deepest level upward; the first level whose
// s-sparse recovery yields a non-empty set is used, and the coordinate with
// the minimum tie-break hash is returned — this is the standard recipe
// making the output distribution (1 ± o(1))-uniform.
func (s *Sampler) Sample() (index uint64, count int64, ok bool) {
	for lvl := len(s.level) - 1; lvl >= 0; lvl-- {
		if !s.level[lvl].decodable() {
			continue
		}
		rec := s.level[lvl].Recover()
		if len(rec) == 0 {
			continue
		}
		best := uint64(0)
		bestHash := uint64(1) << 63
		var bestCount int64
		for idx, cnt := range rec {
			if cnt == 0 {
				continue
			}
			h := s.minHash.Hash(idx)
			if h < bestHash {
				best, bestHash, bestCount = idx, h, cnt
			}
		}
		if bestHash != uint64(1)<<63 {
			return best, bestCount, true
		}
	}
	return 0, 0, false
}

// Cells visits every 1-sparse cell of the sampler in a fixed
// (level-major, then row-major) order.  Snapshot and restore both walk
// this order, so the cell sequence of two samplers built from the same
// RNG stream lines up exactly.
func (s *Sampler) Cells(visit func(*OneSparse)) {
	for i := range s.level {
		s.level[i].Cells(visit)
	}
}

// NumCells returns how many 1-sparse cells Cells visits.
func (s *Sampler) NumCells() int {
	n := 0
	for i := range s.level {
		n += len(s.level[i].cells)
	}
	return n
}

// SpaceWords reports the words of state held by the sampler.
func (s *Sampler) SpaceWords() int {
	words := s.lvlHash.SpaceWords() + s.minHash.SpaceWords()
	for i := range s.level {
		words += s.level[i].SpaceWords()
	}
	return words
}
