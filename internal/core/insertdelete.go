package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"feww/internal/hashing"
	"feww/internal/l0"
	"feww/internal/stream"
	"feww/internal/xrand"
)

// InsertDeleteConfig parameterises the insertion-deletion algorithm.
type InsertDeleteConfig struct {
	N     int64 // |A|
	M     int64 // |B| (needed to define the edge universe [0, n*m))
	D     int64 // degree threshold d
	Alpha int   // approximation factor alpha >= 1
	Seed  uint64

	// ScaleFactor multiplies the theoretical sampler counts (the "10 ... ln"
	// terms of Algorithm 3).  1.0 (default when 0) is the paper's setting;
	// experiments use smaller values to keep the constant-factor-free
	// shape measurable on a laptop.  See docs/EXPERIMENTS.md §2 (substitutions).
	ScaleFactor float64

	// Sampler selects the internal L0 sampler dimensions; zero value uses
	// l0.DefaultParams.
	Sampler l0.Params

	// MaxSamplers caps the total number of L0 samplers the construction may
	// allocate (vertex samplers + edge samplers); 0 means the default of
	// 1 << 20.  Exceeding the cap is a configuration error: lower
	// ScaleFactor or the instance size.
	MaxSamplers int
}

func (c *InsertDeleteConfig) validate() error {
	if c.N < 1 || c.M < 1 {
		return fmt.Errorf("core: InsertDelete config: N = %d, M = %d, want >= 1", c.N, c.M)
	}
	// Edge keys a*M + b live in F_p with p = 2^61 - 1: a larger universe
	// would wrap the uint64 key (N*M = 2^64 wraps to an empty universe)
	// or alias distinct edges modulo p.
	if uint64(c.N) > hashing.MersennePrime61/uint64(c.M) {
		return fmt.Errorf("core: InsertDelete config: N*M = %d*%d exceeds the edge universe bound 2^61-1", c.N, c.M)
	}
	if c.D < 1 {
		return fmt.Errorf("core: InsertDelete config: D = %d, want >= 1", c.D)
	}
	if c.Alpha < 1 {
		return fmt.Errorf("core: InsertDelete config: Alpha = %d, want >= 1", c.Alpha)
	}
	if c.ScaleFactor < 0 {
		return fmt.Errorf("core: InsertDelete config: ScaleFactor = %f, want >= 0", c.ScaleFactor)
	}
	return nil
}

// Sizing reports the derived dimensions of Algorithm 3 for a config:
// x = max(n/alpha, sqrt(n)), the vertex sample size 10*x*ln(n), the number
// of L0 samplers per sampled vertex 10*(d/alpha)*ln(n), and the number of
// edge samplers 10*(n*d/alpha)*(1/x + 1/alpha)*ln(n*m) — all multiplied by
// ScaleFactor and floored at 1.
//
// Battery sizes are additionally floored at the coupon-collector minimum
// ~2*d2*ln(d2): sampling with repetition needs about d2*ln(d2) draws to see
// d2 distinct witnesses, so scaling a battery below that can never succeed
// and would only distort the ablation curves.
type Sizing struct {
	X                 int64
	VertexSampleSize  int
	SamplersPerVertex int
	EdgeSamplers      int
}

// TotalSamplers returns the total L0 sampler count the sizing implies.
func (s Sizing) TotalSamplers() int {
	return s.VertexSampleSize*s.SamplersPerVertex + s.EdgeSamplers
}

// Sizing computes the derived dimensions without allocating anything, so
// callers can budget before construction.
func (c *InsertDeleteConfig) Sizing() Sizing {
	scale := c.ScaleFactor
	if scale == 0 {
		scale = 1
	}
	n := float64(c.N)
	alpha := float64(c.Alpha)
	x := math.Max(n/alpha, math.Sqrt(n))
	lnN := math.Log(math.Max(n, 2))
	lnNM := math.Log(math.Max(n*float64(c.M), 2))
	dOverAlpha := float64(c.D) / alpha

	ceil1 := func(v float64) int {
		iv := int(math.Ceil(v))
		if iv < 1 {
			return 1
		}
		return iv
	}
	vs := ceil1(10 * x * lnN * scale)
	if int64(vs) > c.N {
		vs = int(c.N)
	}
	d2 := float64(witnessTarget(c.D, c.Alpha))
	minBattery := ceil1(2 * d2 * math.Log(d2+2))
	spv := ceil1(10 * dOverAlpha * lnN * scale)
	if spv < minBattery {
		spv = minBattery
	}
	es := ceil1(10 * n * dOverAlpha * (1/x + 1/alpha) * lnNM * scale)
	if es < minBattery {
		es = minBattery
	}
	return Sizing{
		X:                 int64(math.Ceil(x)),
		VertexSampleSize:  vs,
		SamplersPerVertex: spv,
		EdgeSamplers:      es,
	}
}

// InsertDelete is Algorithm 3: the one-pass alpha-approximation algorithm
// for FEwW in insertion-deletion streams.  It combines two sampling
// strategies, both implemented with L0 samplers:
//
//   - Vertex sampling: a uniform random subset A' of the A-vertices is
//     fixed before the stream; each sampled vertex gets its own battery of
//     L0 samplers over its incident-edge substream.  This succeeds w.h.p.
//     when at least n/x vertices have degree >= d/alpha (Lemma 5.2).
//   - Edge sampling: a battery of L0 samplers over the whole edge universe.
//     This succeeds w.h.p. when at most n/x vertices have degree >= d/alpha
//     (Lemma 5.3).
//
// Together they give space ~O(d n / alpha^2) for alpha <= sqrt(n)
// (Theorem 5.4).
type InsertDelete struct {
	cfg    InsertDeleteConfig
	sizing Sizing
	d2     int64

	vertexSamplers map[int64][]*l0.Sampler // sampled A-vertex -> its samplers
	edgeSamplers   []*l0.Sampler
	updates        int64

	// byVertex is ApplyUpdates' scratch: the batch positions of updates
	// whose A-vertex is sampled, grouped by vertex.  It is not state.
	byVertex []int
}

// NewInsertDelete constructs the algorithm, allocating all samplers up
// front (the sampled vertex set must be fixed before the stream starts).
func NewInsertDelete(cfg InsertDeleteConfig) (*InsertDelete, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizing := cfg.Sizing()
	maxSamplers := cfg.MaxSamplers
	if maxSamplers == 0 {
		maxSamplers = 1 << 20
	}
	if total := sizing.TotalSamplers(); total > maxSamplers {
		return nil, fmt.Errorf("core: InsertDelete would allocate %d L0 samplers (cap %d); lower ScaleFactor or the instance size", total, maxSamplers)
	}
	params := cfg.Sampler
	if params == (l0.Params{}) {
		params = l0.DefaultParams
	}

	rng := xrand.New(cfg.Seed)
	algo := &InsertDelete{
		cfg:            cfg,
		sizing:         sizing,
		d2:             witnessTarget(cfg.D, cfg.Alpha),
		vertexSamplers: make(map[int64][]*l0.Sampler, sizing.VertexSampleSize),
	}

	// Fix A' := a uniform random subset of A of size VertexSampleSize.
	for _, v := range rng.Subset(int(cfg.N), sizing.VertexSampleSize) {
		batt := make([]*l0.Sampler, sizing.SamplersPerVertex)
		for i := range batt {
			batt[i] = l0.NewSampler(rng.Split(), uint64(cfg.M), params)
		}
		algo.vertexSamplers[int64(v)] = batt
	}

	algo.edgeSamplers = make([]*l0.Sampler, sizing.EdgeSamplers)
	edgeUniverse := uint64(cfg.N) * uint64(cfg.M)
	for i := range algo.edgeSamplers {
		algo.edgeSamplers[i] = l0.NewSampler(rng.Split(), edgeUniverse, params)
	}
	return algo, nil
}

// checkUpdate reports why (a, b, delta) is not a valid update: delta must
// be +1 or -1 and the edge must lie in [0, N) x [0, M).
func (id *InsertDelete) checkUpdate(a, b int64, delta int) error {
	if delta != 1 && delta != -1 {
		return fmt.Errorf("core: InsertDelete update with delta %d not in {-1, +1}", delta)
	}
	if a < 0 || a >= id.cfg.N || b < 0 || b >= id.cfg.M {
		return fmt.Errorf("core: InsertDelete update (%d, %d) outside [0, %d) x [0, %d)", a, b, id.cfg.N, id.cfg.M)
	}
	return nil
}

// edgeKey maps edge (a, b) to its coordinate in the edge samplers'
// universe [0, N*M).
func (id *InsertDelete) edgeKey(a, b int64) uint64 {
	return uint64(a)*uint64(id.cfg.M) + uint64(b)
}

// Update feeds one stream update: delta = +1 for an insertion of edge
// (a, b), delta = -1 for a deletion.  It panics on an invalid update;
// ProcessUpdate is the error-returning form.
func (id *InsertDelete) Update(a, b int64, delta int) {
	if err := id.ProcessUpdate(a, b, delta); err != nil {
		panic(err.Error())
	}
}

// ApplyUpdates feeds a batch of stream updates in order; the batched form
// is the turnstile engine's shard hand-off unit.  It validates the whole
// batch first and panics, having changed nothing, on an invalid update.
//
// The loops run sampler-major: each sampler takes every update of the
// batch that reaches it before the next sampler is touched, so a
// sampler's cells are fetched into cache once per batch instead of once
// per update.  The result is exactly that of calling Update once per
// element: every sampler is an independent linear sketch, and each still
// sees its own updates in stream order.
func (id *InsertDelete) ApplyUpdates(ups []stream.Update) {
	for _, u := range ups {
		if err := id.checkUpdate(u.A, u.B, int(u.Op)); err != nil {
			panic(err.Error())
		}
	}
	id.updates += int64(len(ups))

	// Vertex batteries: group the positions of updates to sampled vertices
	// by vertex (stably, so stream order holds within a group), then run
	// each battery over its vertex's group.
	pos := id.byVertex[:0]
	for i, u := range ups {
		if _, ok := id.vertexSamplers[u.A]; ok {
			pos = append(pos, i)
		}
	}
	slices.SortStableFunc(pos, func(i, j int) int { return cmp.Compare(ups[i].A, ups[j].A) })
	id.byVertex = pos
	for lo := 0; lo < len(pos); {
		a := ups[pos[lo]].A
		hi := lo + 1
		for hi < len(pos) && ups[pos[hi]].A == a {
			hi++
		}
		for _, s := range id.vertexSamplers[a] {
			for _, i := range pos[lo:hi] {
				s.Update(uint64(ups[i].B), int64(ups[i].Op))
			}
		}
		lo = hi
	}

	for _, s := range id.edgeSamplers {
		for _, u := range ups {
			s.Update(id.edgeKey(u.A, u.B), int64(u.Op))
		}
	}
}

// ProcessUpdate feeds one stream update, or returns an error and changes
// nothing if it is invalid.  It implements the Algorithm interface used
// by StarDetector.
func (id *InsertDelete) ProcessUpdate(a, b int64, delta int) error {
	if err := id.checkUpdate(a, b, delta); err != nil {
		return err
	}
	id.updates++
	for _, s := range id.vertexSamplers[a] {
		s.Update(uint64(b), int64(delta))
	}
	key := id.edgeKey(a, b)
	for _, s := range id.edgeSamplers {
		s.Update(key, int64(delta))
	}
	return nil
}

// Strategy identifies which of Algorithm 3's two sampling strategies
// produced a result.
type Strategy int

const (
	// StrategyNone means no strategy found a large enough neighbourhood.
	StrategyNone Strategy = iota
	// StrategyVertex is the dense-regime vertex-sampling strategy (Lemma 5.2).
	StrategyVertex
	// StrategyEdge is the sparse-regime edge-sampling strategy (Lemma 5.3).
	StrategyEdge
)

func (s Strategy) String() string {
	switch s {
	case StrategyVertex:
		return "vertex"
	case StrategyEdge:
		return "edge"
	default:
		return "none"
	}
}

// Result returns any stored neighbourhood of size >= ceil(d/alpha), per
// step 4 of Algorithm 3, or ErrNoWitness.
func (id *InsertDelete) Result() (Neighbourhood, error) {
	nb, _, err := id.ResultWithStrategy()
	return nb, err
}

// ResultWithStrategy is Result plus which strategy succeeded — used by
// experiment E6 to exhibit the dense/sparse crossover of Lemmas 5.2/5.3.
//
// Candidate vertices and witness sets are consulted in sorted order, not
// map order, so identical sampler state always yields the identical
// neighbourhood.  The engines rely on this: a published result epoch and
// a barrier read of the same state must agree byte for byte.
func (id *InsertDelete) ResultWithStrategy() (Neighbourhood, Strategy, error) {
	// Vertex strategy: each sampled vertex's battery yields up to
	// SamplersPerVertex (near-uniform, with repetition) incident edges.
	for _, a := range sortedKeys(id.vertexSamplers) {
		seen := make(map[int64]struct{})
		for _, s := range id.vertexSamplers[a] {
			if b, cnt, ok := s.Sample(); ok && cnt > 0 {
				seen[int64(b)] = struct{}{}
			}
		}
		if int64(len(seen)) >= id.d2 {
			return Neighbourhood{A: a, Witnesses: takeWitnesses(seen, id.d2)}, StrategyVertex, nil
		}
	}
	// Edge strategy: group sampled edges by their A-endpoint.
	byVertex := make(map[int64]map[int64]struct{})
	for _, s := range id.edgeSamplers {
		key, cnt, ok := s.Sample()
		if !ok || cnt <= 0 {
			continue
		}
		a := int64(key / uint64(id.cfg.M))
		b := int64(key % uint64(id.cfg.M))
		if byVertex[a] == nil {
			byVertex[a] = make(map[int64]struct{})
		}
		byVertex[a][b] = struct{}{}
	}
	for _, a := range sortedKeys(byVertex) {
		if seen := byVertex[a]; int64(len(seen)) >= id.d2 {
			return Neighbourhood{A: a, Witnesses: takeWitnesses(seen, id.d2)}, StrategyEdge, nil
		}
	}
	return Neighbourhood{}, StrategyNone, ErrNoWitness
}

// sortedKeys returns a map's keys in ascending order, for deterministic
// candidate iteration.
func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// takeWitnesses extracts the d2 smallest witnesses from a set — a
// deterministic choice, so the same state always reports the same proof.
func takeWitnesses(set map[int64]struct{}, d2 int64) []int64 {
	out := make([]int64, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out[:d2]
}

// WitnessTarget returns d2 = ceil(d/alpha).
func (id *InsertDelete) WitnessTarget() int64 { return id.d2 }

// Config returns the configuration the instance was built (or restored)
// with; engine restore uses it to cross-check shard snapshots against
// their container.
func (id *InsertDelete) Config() InsertDeleteConfig { return id.cfg }

// SizingInfo returns the derived dimensions in use.
func (id *InsertDelete) SizingInfo() Sizing { return id.sizing }

// UpdatesProcessed returns the number of stream updates consumed.
func (id *InsertDelete) UpdatesProcessed() int64 { return id.updates }

// SpaceWords reports the live state across all L0 samplers.
func (id *InsertDelete) SpaceWords() int {
	words := 0
	for _, batt := range id.vertexSamplers {
		words++ // the sampled vertex id
		for _, s := range batt {
			words += s.SpaceWords()
		}
	}
	for _, s := range id.edgeSamplers {
		words += s.SpaceWords()
	}
	return words
}
