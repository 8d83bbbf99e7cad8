package l0

import (
	"feww/internal/hashing"
	"feww/internal/xrand"
)

// SSparse recovers a turnstile vector with at most s non-zero coordinates.
// Coordinates are hashed into 2s OneSparse cells per row, over rows
// independent rows; a coordinate is recovered if it lands alone in some
// cell of some row, which for an s-sparse vector happens for every
// coordinate with probability >= 1 - 2^-rows.
type SSparse struct {
	width int                // cells per row, 2s
	cells []OneSparse        // row-major: row r is cells[r*width : (r+1)*width]
	hash  []hashing.Pairwise // hash[r] picks row r's cell
}

// NewSSparse returns an s-sparse recoverer with the given number of rows.
// rows controls the failure probability (roughly 2^-rows per coordinate).
func NewSSparse(rng *xrand.RNG, s, rows int) *SSparse {
	if s < 1 || rows < 1 {
		panic("l0: NewSSparse with s < 1 or rows < 1")
	}
	ss := &SSparse{}
	ss.init(rng, make([]OneSparse, rows*2*s), make([]hashing.Pairwise, rows))
	return ss
}

// init lays the recoverer over the given cell and hash arrays, whose
// lengths fix rows and width, and draws every cell's fingerprint point and
// every row hash: row by row, a row's cells before its hash.
func (ss *SSparse) init(rng *xrand.RNG, cells []OneSparse, hash []hashing.Pairwise) {
	ss.width = len(cells) / len(hash)
	ss.cells, ss.hash = cells, hash
	for r := range hash {
		for c := r * ss.width; c < (r+1)*ss.width; c++ {
			cells[c].fp = hashing.MakeFingerprint(rng)
		}
		hash[r] = hashing.NewPairwise(rng)
	}
}

// cellOf returns the position in cells of the row-r cell that index hashes to.
func (ss *SSparse) cellOf(r int, index uint64) int {
	return r*ss.width + int(ss.hash[r].HashRange(index, uint64(ss.width)))
}

// Update applies x[index] += delta.  The touched cells' fingerprint powers
// r^index are computed hashing.PowLanes rows at a time by one interleaved
// pass; a last, shorter group leaves its spare lanes at base 0 and
// discards their results.
func (ss *SSparse) Update(index uint64, delta int64) {
	const lanes = hashing.PowLanes
	for r0 := 0; r0 < len(ss.hash); r0 += lanes {
		n := min(lanes, len(ss.hash)-r0)
		var at [lanes]int
		var base [lanes]uint64
		for k := 0; k < n; k++ {
			at[k] = ss.cellOf(r0+k, index)
			base[k] = ss.cells[at[k]].fp.Point()
		}
		pow := hashing.PowMod61Lanes(base, index)
		for k := 0; k < n; k++ {
			ss.cells[at[k]].updatePow(index, delta, pow[k])
		}
	}
}

// decodable reports whether any cell has a non-zero delta sum.  A cell
// with count 0 never decodes, so Recover of a level where this is false
// returns nothing; Sampler.Sample skips such levels without the copy.
func (ss *SSparse) decodable() bool {
	for i := range ss.cells {
		if ss.cells[i].count != 0 {
			return true
		}
	}
	return false
}

// Recover returns the set of recoverable non-zero coordinates with their
// counts using a peeling decoder: singleton cells are decoded, the
// recovered coordinate is subtracted from a scratch copy of every row
// (turning colliding cells into new singletons), and the process repeats
// until no cell decodes.  For an s-sparse vector every coordinate is
// recovered with high probability; spurious decodes are filtered by the
// per-cell fingerprint, so returned entries are correct w.h.p.
func (ss *SSparse) Recover() map[uint64]int64 {
	scratch := make([]OneSparse, len(ss.cells))
	copy(scratch, ss.cells)
	out := make(map[uint64]int64)
	for {
		progressed := false
		for i := range scratch {
			idx, cnt, ok := scratch[i].Recover()
			if !ok {
				continue
			}
			if _, seen := out[idx]; seen {
				continue // already peeled via another row
			}
			out[idx] = cnt
			// Subtract the coordinate everywhere so collided cells can
			// become singletons in later passes.
			for r := range ss.hash {
				scratch[ss.cellOf(r, idx)].Update(idx, -cnt)
			}
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// Cells visits every 1-sparse cell in row-major order — the fixed
// iteration order the snapshot format relies on.
func (ss *SSparse) Cells(visit func(*OneSparse)) {
	for i := range ss.cells {
		visit(&ss.cells[i])
	}
}

// SpaceWords reports the words of state held by the recoverer.
func (ss *SSparse) SpaceWords() int {
	words := 0
	for i := range ss.cells {
		words += ss.cells[i].SpaceWords()
	}
	for _, h := range ss.hash {
		words += h.SpaceWords()
	}
	return words
}
