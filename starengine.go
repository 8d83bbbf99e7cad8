// StarEngine is a façade over the generic sharded runtime
// (runtime.go): Star Detection (paper Problem 2, Lemma 3.3) served at
// sharded-engine speed.  Where the single-threaded StarDetector in
// star.go runs one guess ladder over the whole graph, StarEngine
// partitions the ladder by (star center, rung): each shard owns a residue
// class of the vertex universe and holds the complete (1+eps) guess
// ladder over its slice (a core.StarShard — one InsertOnly instance per
// rung).  Every directed half-edge of a center lands in the one shard
// owning it, so each rung's per-shard instance is an ordinary
// insertion-only FEwW run and the Lemma 3.3 guarantee transfers verbatim;
// the cross-shard merge is a max over rung indices with the flat engines'
// deterministic tie-breaks below it.
//
// The double cover is materialised in the stream: StarEngine consumes
// directed half-edges (a, b) — "center candidate a gained neighbour b" —
// and an undirected edge {u, v} must be fed as both (u, v) and (v, u),
// exactly once each.  ProcessEdge does that for full-universe engines;
// stream producers (cmd/fewwgen -kind star) write both orientations so a
// cluster gateway can range-route the half-edges like any other stream,
// each to the member owning its center.  N is therefore the engine's
// center slice (the full vertex set on a single node, one contiguous
// range on a cluster member) while M is always the global vertex count:
// witnesses stay global vertex ids, and the guess ladder is derived from
// M, so rung indices are comparable across shards, engines and cluster
// members no matter how the centers are partitioned.

package feww

import (
	"fmt"
	"io"
	"math"
	"sort"

	"feww/internal/core"
	"feww/internal/xrand"
)

// StarEngineConfig parameterises the sharded star-detection engine.
type StarEngineConfig struct {
	// N is the number of star-center vertices this engine owns: the full
	// graph on a single node, or the length of this member's contiguous
	// vertex range in a cluster.  Half-edge centers must lie in [0, N).
	N int64
	// M is the total number of graph vertices — the witness universe and
	// the ceiling of the (1+eps) guess ladder.  0 means N (the single-node
	// case).  Cluster members of one graph share M while splitting N.
	M int64
	// Alpha is the per-guess FEwW approximation factor (0 means 2); the
	// final guarantee is a ((1+Eps) * Alpha)-approximation of the maximum
	// degree (Lemma 3.3, Corollary 3.4).
	Alpha int
	// Eps controls the ladder density; 0 means 0.5.  It must be finite
	// and at least core.MinStarEps (1e-4): the ladder has
	// ~log_{1+Eps}(M) rungs, so smaller values make its derivation and
	// memory unbounded for no measurable ratio gain.
	Eps float64
	// Seed makes the run reproducible; per-shard and per-rung seeds are
	// derived from it.
	Seed uint64
	// ScaleFactor scales every rung's reservoir (see Config.ScaleFactor).
	ScaleFactor float64

	// Shards, BatchSize, QueueDepth behave exactly as in EngineConfig.
	Shards     int
	BatchSize  int
	QueueDepth int
}

// resolve applies defaults and clamps; the resolved form is what
// Snapshot persists.
func (cfg *StarEngineConfig) resolve() error {
	if cfg.M == 0 {
		cfg.M = cfg.N
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 2
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.5
	}
	if cfg.Alpha < 1 {
		return fmt.Errorf("feww: StarEngine config: Alpha = %d, want >= 1", cfg.Alpha)
	}
	if cfg.Eps < 0 {
		return fmt.Errorf("feww: StarEngine config: Eps = %f, want > 0", cfg.Eps)
	}
	if cfg.N < 1 || cfg.M < cfg.N {
		return fmt.Errorf("feww: StarEngine config: N = %d with M = %d, want 1 <= N <= M", cfg.N, cfg.M)
	}
	return resolveShardParams("StarEngine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

// shardConfig derives shard i's StarShard configuration; snapshot restore
// verifies shard snapshots against exactly this derivation.
func (cfg *StarEngineConfig) shardConfig(i int, p int64, guesses []int64, seed uint64) core.StarShardConfig {
	return core.StarShardConfig{
		N:           shardUniverse(cfg.N, p, i),
		Guesses:     guesses,
		Alpha:       cfg.Alpha,
		Seed:        seed,
		ScaleFactor: cfg.ScaleFactor,
	}
}

// StarResult is a star answer: a center vertex with a set of its genuine
// neighbours, certified by the highest successful rung of the guess
// ladder.  If the graph's maximum degree is Delta, the engine guarantees
// (w.h.p., per rung) Size >= Delta / ((1+Eps) * Alpha).
type StarResult struct {
	Neighbourhood
	// Rung is the ladder index of the certifying guess, Guess its degree
	// guess Delta' = ceil((1+Eps)^Rung), and Target = ceil(Guess/Alpha)
	// the certified neighbourhood size.
	Rung   int
	Guess  int64
	Target int64
}

// StarResults is every center certified at the winning (highest
// successful) rung, sorted by global vertex id — the star analogue of the
// flat engines' Results.  Rung is -1 with no neighbourhoods on an engine
// that has not certified anything yet.
type StarResults struct {
	Rung           int
	Guess          int64
	Target         int64
	Neighbourhoods []Neighbourhood
}

// StarEngine is the sharded, batched star-detection engine.  It carries
// the runtime's full contract — safe for any number of concurrent
// producers and queriers, deterministic under a fixed seed and single
// producer, barrier-free published queries with Fresh variants, exact
// Snapshot/Restore — inherited from the same implementation Engine and
// TurnstileEngine run on.
type StarEngine struct {
	cfg     StarEngineConfig
	guesses []int64
	*engineRuntime[Edge]
}

// NewStarEngine constructs a sharded star engine and starts its shard
// goroutines.  Shard p owns centers {a in [0, N) : a % P == p}, each as a
// full guess ladder over a universe of size ceil((N-p)/P).
func NewStarEngine(cfg StarEngineConfig) (*StarEngine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	guesses, err := core.StarGuesses(cfg.M, cfg.Eps)
	if err != nil {
		return nil, fmt.Errorf("feww: StarEngine config: %w", err)
	}
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	shards := make([]*core.StarShard, cfg.Shards)
	for i := range shards {
		ss, err := core.NewStarShard(cfg.shardConfig(i, p, guesses, seeds.Uint64()))
		if err != nil {
			return nil, fmt.Errorf("feww: StarEngine shard %d: %w", i, err)
		}
		shards[i] = ss
	}
	return newStarFromShards(cfg, guesses, shards), nil
}

// newStarFromShards assembles the engine around existing per-shard
// ladders (fresh or restored) and starts the shard goroutines.
func newStarFromShards(cfg StarEngineConfig, guesses []int64, shards []*core.StarShard) *StarEngine {
	algos := make([]shardAlgo[Edge], len(shards))
	for i, ss := range shards {
		algos[i] = starAlgo{ss}
	}
	return &StarEngine{
		cfg:     cfg,
		guesses: guesses,
		engineRuntime: newRuntime("StarEngine", cfg.BatchSize, cfg.QueueDepth, starSnapHeaderBytes,
			func(e Edge) int64 { return e.A },
			func(e *Edge, a int64) { e.A = a },
			algos),
	}
}

// Config returns the resolved configuration the engine runs with; it is
// also the configuration a snapshot persists.
func (e *StarEngine) Config() StarEngineConfig { return e.cfg }

// Guesses returns the (1+Eps) ladder, identical on every shard.
func (e *StarEngine) Guesses() []int64 { return e.guesses }

// ProcessHalfEdge feeds one directed half-edge: center a in [0, N) gained
// neighbour b in [0, M).  Undirected inputs must arrive as both
// orientations exactly once each (the double cover of Lemma 3.3); use
// ProcessEdge to feed both at once on a full-universe engine.  Errors as
// (*Engine).ProcessEdge.
func (e *StarEngine) ProcessHalfEdge(a, b int64) error {
	if err := checkEdge(e.cfg.N, e.cfg.M, 0, 1, a, b); err != nil {
		return err
	}
	return e.f.add(Edge{A: a, B: b})
}

// ProcessHalfEdges feeds a batch of directed half-edges in order.  The
// slice is copied into per-shard buffers; the caller keeps ownership.
// The whole batch is validated first and rejected atomically.
func (e *StarEngine) ProcessHalfEdges(edges []Edge) error {
	for i, ed := range edges {
		if err := checkEdge(e.cfg.N, e.cfg.M, i, len(edges), ed.A, ed.B); err != nil {
			return err
		}
	}
	return e.f.addBatch(edges)
}

// ProcessEdge feeds one undirected edge {u, v} by feeding both
// orientations — the convenience entry point for a full-universe engine
// (N == M).  On a range member (N < M) a neighbour outside the member's
// center slice cannot be mirrored locally and the call errors; feed
// pre-mirrored half-edges instead, as the cluster gateway does.
func (e *StarEngine) ProcessEdge(u, v int64) error {
	if err := checkEdge(e.cfg.N, e.cfg.M, 0, 2, u, v); err != nil {
		return err
	}
	if err := checkEdge(e.cfg.N, e.cfg.M, 1, 2, v, u); err != nil {
		return err
	}
	return e.f.addBatch([]Edge{{A: u, B: v}, {A: v, B: u}})
}

// starBetter reports whether (rung, size, vertex) beats the current best
// under the star merge order: higher rung first, then larger
// neighbourhood, then the smaller global vertex id.  The order is total
// and associative, so merging over shards, then over cluster members,
// gives the same winner as merging over everything at once — the property
// the cluster tier's byte-identity rests on.
func starBetter(rung int, nb Neighbourhood, bestRung int, best Neighbourhood) bool {
	if rung != bestRung {
		return rung > bestRung
	}
	if nb.Size() != best.Size() {
		return nb.Size() > best.Size()
	}
	return nb.A < best.A
}

// best merges the shard views under the star order.
func (e *StarEngine) best(fresh bool) (StarResult, bool) {
	var out StarResult
	found := false
	e.forEachView(fresh, shardAlgo[Edge].QueryBest, func(sh *rtShard[Edge], v *core.View) {
		if !v.BestOK {
			return
		}
		nb := v.Best
		nb.A = sh.global(nb.A)
		if !found || starBetter(v.Rung, nb, out.Rung, out.Neighbourhood) {
			out = StarResult{Neighbourhood: nb, Rung: v.Rung, Guess: v.Guess, Target: v.Target}
			found = true
		}
	})
	return out, found
}

// Best returns the best star found so far — the smallest-id center
// certified at the highest successful rung — from the latest published
// epochs; found is false only if no shard has certified anything.
// Barrier-free; see (*Engine).Results for the consistency contract.
func (e *StarEngine) Best() (StarResult, bool) { return e.best(false) }

// BestFresh is Best under the strict barrier: it quiesces the shards
// first, so the answer reflects every half-edge fed before the call.
func (e *StarEngine) BestFresh() (StarResult, bool) { return e.best(true) }

// results merges the shard views: the winning rung is the maximum across
// shards, and every shard at that rung contributes its certified centers.
func (e *StarEngine) resultsAt(fresh bool) StarResults {
	out := StarResults{Rung: -1}
	type shardView struct {
		sh *rtShard[Edge]
		v  core.View
	}
	var winners []shardView
	e.forEachView(fresh, shardAlgo[Edge].QueryResults, func(sh *rtShard[Edge], v *core.View) {
		if v.Rung < 0 {
			return
		}
		if v.Rung > out.Rung {
			out.Rung, out.Guess, out.Target = v.Rung, v.Guess, v.Target
			winners = winners[:0]
		}
		if v.Rung == out.Rung {
			winners = append(winners, shardView{sh, *v})
		}
	})
	for _, w := range winners {
		for _, nb := range w.v.Results {
			nb.A = w.sh.global(nb.A)
			out.Neighbourhoods = append(out.Neighbourhoods, nb)
		}
	}
	sort.Slice(out.Neighbourhoods, func(i, j int) bool {
		return out.Neighbourhoods[i].A < out.Neighbourhoods[j].A
	})
	return out
}

// Results returns every center certified at the winning rung, sorted by
// global vertex id, from the latest published epochs.  Barrier-free; the
// witness slices are shared with the published views — treat them as
// read-only.
func (e *StarEngine) Results() StarResults { return e.resultsAt(false) }

// ResultsFresh is Results under the strict barrier.
func (e *StarEngine) ResultsFresh() StarResults { return e.resultsAt(true) }

// EdgesProcessed returns the number of directed half-edges fed to the
// engine (two per undirected input edge).
func (e *StarEngine) EdgesProcessed() int64 { return e.f.count.Load() }

// Snapshot writes the engine's complete state in the FEWWENG1 container
// (kind byte 2); the same quiescing and exactness guarantees as
// (*Engine).Snapshot apply.
func (e *StarEngine) Snapshot(w io.Writer) error {
	return e.snapshot(w, engineKindStar, []uint64{
		uint64(e.cfg.N),
		uint64(e.cfg.M),
		uint64(e.cfg.Alpha),
		math.Float64bits(e.cfg.Eps),
		e.cfg.Seed,
		math.Float64bits(e.cfg.ScaleFactor),
		uint64(e.cfg.Shards),
		uint64(e.cfg.BatchSize),
		uint64(e.cfg.QueueDepth),
	})
}

// RestoreStarEngine reads a snapshot written by (*StarEngine).Snapshot
// and returns a running engine that continues exactly where the
// snapshotted one stopped, including its ladder, shard partitioning and
// batch/queue tuning.
func RestoreStarEngine(r io.Reader) (*StarEngine, error) {
	dec, err := openEngineSnap(r, engineKindStar, "a StarEngine")
	if err != nil {
		return nil, err
	}
	cfg := StarEngineConfig{
		N:     int64(dec.u64()),
		M:     int64(dec.u64()),
		Alpha: int(dec.u64()),
	}
	cfg.Eps = math.Float64frombits(dec.u64())
	cfg.Seed = dec.u64()
	cfg.ScaleFactor = math.Float64frombits(dec.u64())
	cfg.Shards = int(dec.u64())
	cfg.BatchSize = int(dec.u64())
	cfg.QueueDepth = int(dec.u64())
	count := int64(dec.u64())
	if dec.err != nil {
		return nil, dec.err
	}
	if err := validateEngineSnapHeader(cfg.N, cfg.Shards, cfg.BatchSize, cfg.QueueDepth, count); err != nil {
		return nil, err
	}
	if cfg.Alpha < 1 || cfg.Eps <= 0 || cfg.M < cfg.N {
		return nil, fmt.Errorf("%w: star header alpha %d eps %f m %d n %d", ErrBadSnapshot, cfg.Alpha, cfg.Eps, cfg.M, cfg.N)
	}
	guesses, err := core.StarGuesses(cfg.M, cfg.Eps)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	shards := make([]*core.StarShard, cfg.Shards)
	for i := range shards {
		want := cfg.shardConfig(i, p, guesses, seeds.Uint64())
		// RestoreStarShard cross-checks every rung snapshot against the
		// derived ladder configuration, so no separate comparison is
		// needed here.
		restore := func(r io.Reader) (*core.StarShard, error) { return core.RestoreStarShard(r, want) }
		if shards[i], err = restoreShard(dec, restore, i); err != nil {
			return nil, err
		}
	}
	eng := newStarFromShards(cfg, guesses, shards)
	eng.f.restoreCount(count)
	return eng, nil
}
