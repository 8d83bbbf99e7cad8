// The sharded engines lift the single-threaded FEwW algorithms to a
// concurrent, batched ingest pipeline.  The paper's one-way communication
// protocols already prove the state is partition-friendly — a Snapshot is a
// complete, self-contained message — and a per-item partition is even
// stronger: every edge of an item lands in exactly one shard, so each shard
// is an ordinary single-threaded instance over a slice of the universe, the
// degree-d promise transfers verbatim, and merging shard outputs is a
// concatenation (Results) plus a max-select (Best).  The hot path is a
// two-phase reserve-then-enqueue pipeline: a producer claims a contiguous
// position range with one atomic add, partitions its batch into per-shard
// sub-batches outside any lock, then admits each sub-batch under a
// per-shard sequence ordered by the reserved base — so concurrent
// producers (a network server's handlers, a gateway's replica fan-out)
// route in parallel and contend only on the brief per-shard appends,
// while each shard still consumes its sub-stream in exact global-position
// order.
//
// Queries are barrier-free by default: each shard worker publishes an
// immutable result view (a core.View inside a publishedView epoch) through
// an atomic pointer, so Best/Results/Result/SpaceWords/Usage merge the
// latest published epochs without touching the ingest path or quiescing
// any worker — a read-heavy workload neither stalls ingest nor serialises
// with other queries.  The Fresh variants keep the strict barrier
// semantics: they quiesce the shards and reflect every element fed before
// the call.
//
// All of that machinery lives once, in the generic runtime (runtime.go),
// together with the lifecycle and instrumentation methods every engine
// kind shares (Flush, Drain, Close, QueueDepths, Usage, ...), which each
// façade inherits by embedding its runtime.  This file defines the
// insertion-only and turnstile façades — Engine for insertion-only
// streams, TurnstileEngine for insertion-deletion streams — each
// contributing its configuration, boundary validation, feed entry points,
// query selection and per-shard core algorithm.  The other two façades
// live in starengine.go (StarEngine) and windowengine.go (WindowEngine).

package feww

import (
	"errors"
	"fmt"
	"runtime"

	"feww/internal/core"
	"feww/internal/stream"
	"feww/internal/xrand"
)

// ErrClosed is returned by the feed path (ProcessEdge, ProcessEdges,
// Insert, Delete, ProcessUpdates, Flush, Drain) once Close has run.  The
// engine stays fully queryable after Close; only feeding is refused.
var ErrClosed = errors.New("feww: engine used after Close")

// ErrOutOfUniverse is wrapped by the feed path when an element lies
// outside the engine's configured universe — a negative or too-large item
// id, a negative witness, or (turnstile) a witness at or beyond M.  The
// offending batch is rejected whole, before any element reaches a shard,
// so the engine state is untouched.
var ErrOutOfUniverse = errors.New("feww: element outside the engine's universe")

// ErrInvalidOp is wrapped by the turnstile feed path when an update's Op
// is neither Insert nor Delete.  Like ErrOutOfUniverse it rejects the
// batch whole with the engine state untouched.
var ErrInvalidOp = errors.New("feww: update op is neither Insert nor Delete")

const (
	defaultBatchSize  = 512
	defaultQueueDepth = 8
)

// resolveShardParams applies the shared Shards/BatchSize/QueueDepth
// defaults and clamps, mutating the fields into the exact parameters the
// runtime will run with (the form Snapshot persists).
func resolveShardParams(name string, n int64, shards, batchSize, queueDepth *int) error {
	if n < 1 {
		return fmt.Errorf("feww: %s config: N = %d, want >= 1", name, n)
	}
	*shards = shardCount(*shards, n, runtime.GOMAXPROCS(0))
	if *shards < 1 {
		return fmt.Errorf("feww: %s config: Shards = %d, want >= 1", name, *shards)
	}
	if *batchSize <= 0 {
		*batchSize = defaultBatchSize
	}
	if *queueDepth <= 0 {
		*queueDepth = defaultQueueDepth
	}
	return nil
}

// EngineConfig parameterises the sharded insertion-only engine.  The
// embedded Config describes the global problem (full universe size N,
// threshold D, Alpha, master Seed); the engine derives per-shard universes
// and statistically independent per-shard seeds from it.
type EngineConfig struct {
	Config

	// Shards is the number of partitions P, each served by its own
	// goroutine.  0 means runtime.GOMAXPROCS(0).  The count is clamped to N
	// so every shard owns at least one item.
	Shards int
	// BatchSize is the number of edges buffered per shard before hand-off
	// (default 512).  Larger batches amortise queue traffic; results are
	// identical for any batch size.
	BatchSize int
	// QueueDepth is the per-shard queue capacity in batches (default 8);
	// it bounds how far the producer may run ahead of a slow shard.
	QueueDepth int
}

// resolve applies defaults and clamps.
func (cfg *EngineConfig) resolve() error {
	return resolveShardParams("Engine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

// Engine is a sharded, batched front-end to the insertion-only FEwW
// algorithm.  Items are partitioned across P independent InsertOnly
// instances, each fed in stream order by its own goroutine, so ingest
// scales with cores while every per-shard guarantee of Theorem 3.2 is
// preserved on the shard's sub-universe.  A fixed seed yields identical
// results across executions regardless of scheduling or batch size.
//
// Engine is safe for concurrent use: any number of goroutines may feed
// (ProcessEdge, ProcessEdges, Flush) and query (Result, Results, Best,
// SpaceWords, ...) at once — the use case being a network server whose
// handlers ingest and answer queries concurrently.  Determinism holds
// whenever the edges reach the engine in a fixed order, i.e. with a
// single producer; concurrent producers are interleaved in the order
// their batches' atomic position reservations linearised — an order the
// engine applies consistently across every shard, even though it is not
// known in advance.
//
// Queries default to the published consistency: they merge the shards'
// latest published result epochs without any locking, so they cost
// nanoseconds, scale with readers, and never stall ingest — at the price
// of lagging the accepted stream.  Work handed to the shards becomes
// visible within a short publication throttle (tens of milliseconds; see
// shard.go), but edges parked in a partial producer-side fill buffer are
// not dispatched until the batch fills, Flush is called, or a barrier
// runs — a producer that stops mid-batch must Flush (as the HTTP server
// does per request) or published queries will not see the tail.  Every
// published value was genuinely held by the engine at a batch boundary
// (a prefix of each shard's sub-stream); nothing torn or fabricated is
// ever visible.  The Fresh variants (ResultFresh, ResultsFresh,
// BestFresh, SpaceWordsFresh, UsageFresh) opt into the strict barrier:
// they quiesce the shards and reflect every element fed before the call.
// After Drain or Close the two consistencies coincide.  Queries of either
// kind remain valid after Close.
type Engine struct {
	cfg EngineConfig
	*engineRuntime[Edge]
}

// NewEngine constructs a sharded engine and starts its shard goroutines.
// Shard p owns items {a in [0, N) : a % P == p} as an InsertOnly instance
// over a universe of size ceil((N-p)/P) with a seed derived from cfg.Seed.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	inners := make([]*core.InsertOnly, cfg.Shards)
	for i := range inners {
		inner, err := core.NewInsertOnly(cfg.shardConfig(i, p, seeds.Uint64()))
		if err != nil {
			return nil, fmt.Errorf("feww: Engine shard %d: %w", i, err)
		}
		inners[i] = inner
	}
	return newEngineFromInners(cfg, inners), nil
}

// shardConfig derives shard i's InsertOnly configuration from the
// resolved engine configuration; snapshot restore verifies shard
// snapshots against exactly this derivation.
func (cfg *EngineConfig) shardConfig(i int, p int64, seed uint64) core.InsertOnlyConfig {
	return core.InsertOnlyConfig{
		N:           shardUniverse(cfg.N, p, i),
		D:           cfg.D,
		Alpha:       cfg.Alpha,
		Seed:        seed,
		ScaleFactor: cfg.ScaleFactor,
	}
}

// newEngineFromInners assembles the engine around existing per-shard
// algorithm instances — freshly constructed by NewEngine, or restored
// from a snapshot by RestoreEngine — and starts the shard goroutines.
func newEngineFromInners(cfg EngineConfig, inners []*core.InsertOnly) *Engine {
	algos := make([]shardAlgo[Edge], len(inners))
	for i, inner := range inners {
		algos[i] = insertOnlyAlgo{inner}
	}
	return &Engine{
		cfg: cfg,
		engineRuntime: newRuntime("Engine", cfg.BatchSize, cfg.QueueDepth, engineSnapHeaderBytes,
			func(e Edge) int64 { return e.A },
			func(e *Edge, a int64) { e.A = a },
			algos),
	}
}

// Config returns the resolved configuration the engine runs with:
// defaults applied, shard count clamped.  It is also the configuration a
// snapshot persists.
func (e *Engine) Config() EngineConfig { return e.cfg }

// checkEdge validates one occurrence, edge i of a batch of total,
// against an n-item, m-witness universe — the boundary rule every engine
// kind shares (m == 0: witnesses are unbounded, as for Engine and
// WindowEngine).  A negative item would make the shard router's modulo
// negative (an out-of-range shard index); an item >= n would silently
// land in the wrong residue class and corrupt the local/global id
// mapping.  Witnesses must be non-negative, and below m when m bounds
// them.  Violations are rejected here, before anything is buffered.
func checkEdge(n, m int64, i, total int, a, b int64) error {
	if a < 0 || a >= n {
		return fmt.Errorf("%w: edge %d of %d: item %d not in [0, %d)", ErrOutOfUniverse, i, total, a, n)
	}
	if b < 0 {
		return fmt.Errorf("%w: edge %d of %d: witness %d is negative", ErrOutOfUniverse, i, total, b)
	}
	if m > 0 && b >= m {
		return fmt.Errorf("%w: edge %d of %d: witness %d not in [0, %d)", ErrOutOfUniverse, i, total, b, m)
	}
	return nil
}

// ProcessEdge feeds one occurrence: item a in [0, N) arrived with witness
// b.  The edge is buffered and handed to its shard once a full batch
// accumulates (or on Flush/Close/any barrier query).  It returns an error
// wrapping ErrOutOfUniverse for an edge outside the configured universe
// and ErrClosed after Close; in both cases nothing is fed.
func (e *Engine) ProcessEdge(a, b int64) error {
	if err := checkEdge(e.cfg.N, 0, 0, 1, a, b); err != nil {
		return err
	}
	return e.f.add(Edge{A: a, B: b})
}

// ProcessEdges feeds a batch of occurrences in order.  The slice is copied
// into per-shard buffers; the caller keeps ownership of edges.  The whole
// batch is validated first and rejected atomically — on error the engine
// state is exactly as before the call.
func (e *Engine) ProcessEdges(edges []Edge) error {
	for i, ed := range edges {
		if err := checkEdge(e.cfg.N, 0, i, len(edges), ed.A, ed.B); err != nil {
			return err
		}
	}
	return e.f.addBatch(edges)
}

// Result returns a frequent item with at least ceil(D/Alpha) witnesses
// from the latest published epochs, or ErrNoWitness if no shard has
// published one.  The choice is deterministic: the smallest-id frequent
// item of the lowest-index shard holding one — the same selection
// ResultFresh makes, so the two consistencies agree on quiescent state.
func (e *Engine) Result() (Neighbourhood, error) { return e.result(false) }

// ResultFresh is Result under the strict barrier: it quiesces the shards
// first, so the answer reflects every edge fed before the call.
func (e *Engine) ResultFresh() (Neighbourhood, error) { return e.result(true) }

// Results returns every distinct frequent element in the latest published
// epochs, sorted by global item id.  The per-item partition guarantees no
// item is reported by two shards, so the merge is a pure concatenation.
// The call is barrier-free: it never blocks ingest or other queries.
// The returned neighbourhoods stay valid forever, but their witness
// slices are shared with the published view (and with other callers on
// the same epoch) — treat them as read-only.
func (e *Engine) Results() []Neighbourhood { return e.results(false) }

// ResultsFresh is Results under the strict barrier.
func (e *Engine) ResultsFresh() []Neighbourhood { return e.results(true) }

// Best max-selects the largest neighbourhood across the latest published
// epochs, even if below the ceil(D/Alpha) target; found is false only if
// no shard has published anything.  Ties break toward the lower shard
// index.  Barrier-free; see Results.
func (e *Engine) Best() (Neighbourhood, bool) { return e.best(false) }

// BestFresh is Best under the strict barrier.
func (e *Engine) BestFresh() (Neighbourhood, bool) { return e.best(true) }

// EdgesProcessed returns the number of edges fed to the engine.  The
// counter is maintained on the producer side, so no shard synchronisation
// is needed: polling it mid-stream is free.
func (e *Engine) EdgesProcessed() int64 { return e.f.count.Load() }

// TurnstileEngineConfig parameterises the sharded insertion-deletion
// engine.  MaxSamplers in the embedded config caps each shard separately.
type TurnstileEngineConfig struct {
	TurnstileConfig

	// Shards, BatchSize, QueueDepth behave exactly as in EngineConfig.
	Shards     int
	BatchSize  int
	QueueDepth int
}

// resolve applies defaults and clamps, mirroring EngineConfig.resolve.
func (cfg *TurnstileEngineConfig) resolve() error {
	return resolveShardParams("TurnstileEngine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

// TurnstileEngine is the sharded front-end to the insertion-deletion FEwW
// algorithm: the same per-item partition and batched hand-off as Engine,
// with per-shard InsertDelete instances.  The same concurrency,
// determinism, and consistency contracts apply: safe for any number of
// goroutines, deterministic whenever a single producer fixes the update
// order, queries barrier-free against published epochs by default with
// Fresh variants for the strict barrier.
type TurnstileEngine struct {
	cfg TurnstileEngineConfig
	*engineRuntime[Update]
}

// NewTurnstileEngine constructs a sharded turnstile engine and starts its
// shard goroutines.  All samplers of all shards are allocated up front, as
// the underlying algorithm requires.
func NewTurnstileEngine(cfg TurnstileEngineConfig) (*TurnstileEngine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	inners := make([]*core.InsertDelete, cfg.Shards)
	for i := range inners {
		inner, err := core.NewInsertDelete(cfg.shardConfig(i, p, seeds.Uint64()))
		if err != nil {
			return nil, fmt.Errorf("feww: TurnstileEngine shard %d: %w", i, err)
		}
		inners[i] = inner
	}
	return newTurnstileFromInners(cfg, inners), nil
}

// shardConfig derives shard i's InsertDelete configuration; see
// (*EngineConfig).shardConfig.
func (cfg *TurnstileEngineConfig) shardConfig(i int, p int64, seed uint64) core.InsertDeleteConfig {
	return core.InsertDeleteConfig{
		N:           shardUniverse(cfg.N, p, i),
		M:           cfg.M,
		D:           cfg.D,
		Alpha:       cfg.Alpha,
		Seed:        seed,
		ScaleFactor: cfg.ScaleFactor,
		MaxSamplers: cfg.MaxSamplers,
	}
}

// newTurnstileFromInners assembles the engine around existing per-shard
// instances and starts the shard goroutines.
func newTurnstileFromInners(cfg TurnstileEngineConfig, inners []*core.InsertDelete) *TurnstileEngine {
	algos := make([]shardAlgo[Update], len(inners))
	for i, inner := range inners {
		algos[i] = turnstileAlgo{inner}
	}
	return &TurnstileEngine{
		cfg: cfg,
		engineRuntime: newRuntime("TurnstileEngine", cfg.BatchSize, cfg.QueueDepth, turnstileSnapHeaderBytes,
			func(u Update) int64 { return u.A },
			func(u *Update, a int64) { u.A = a },
			algos),
	}
}

// Config returns the resolved configuration the engine runs with; see
// (*Engine).Config.
func (e *TurnstileEngine) Config() TurnstileEngineConfig { return e.cfg }

// checkUpdate validates one signed update: the turnstile op set, then
// the shared universe check (checkEdge).
func (e *TurnstileEngine) checkUpdate(i, total int, u Update) error {
	if u.Op != stream.Insert && u.Op != stream.Delete {
		return fmt.Errorf("%w: update %d of %d: op %d", ErrInvalidOp, i, total, u.Op)
	}
	return checkEdge(e.cfg.N, e.cfg.M, i, total, u.A, u.B)
}

// Insert feeds the insertion of edge (a, b).  It returns an error wrapping
// ErrOutOfUniverse for an edge outside [0, N) x [0, M) and ErrClosed after
// Close; in both cases nothing is fed.
func (e *TurnstileEngine) Insert(a, b int64) error {
	u := Update{Edge: Edge{A: a, B: b}, Op: stream.Insert}
	if err := e.checkUpdate(0, 1, u); err != nil {
		return err
	}
	return e.f.add(u)
}

// Delete feeds the deletion of edge (a, b); the edge must currently exist
// (simple-graph turnstile promise).  Errors as Insert.
func (e *TurnstileEngine) Delete(a, b int64) error {
	u := Update{Edge: Edge{A: a, B: b}, Op: stream.Delete}
	if err := e.checkUpdate(0, 1, u); err != nil {
		return err
	}
	return e.f.add(u)
}

// ProcessUpdates feeds a batch of signed updates in order.  The slice is
// copied into per-shard buffers; the caller keeps ownership of ups.  The
// whole batch is validated first and rejected atomically on error.
func (e *TurnstileEngine) ProcessUpdates(ups []Update) error {
	for i, u := range ups {
		if err := e.checkUpdate(i, len(ups), u); err != nil {
			return err
		}
	}
	return e.f.addBatch(ups)
}

// Result returns a frequent item of the final graph with at least
// ceil(D/Alpha) live witnesses from the latest published epochs, or
// ErrNoWitness if no shard has published one.  Shards are consulted in
// index order.  Barrier-free; see (*Engine).Results for the contract.
func (e *TurnstileEngine) Result() (Neighbourhood, error) { return e.result(false) }

// ResultFresh is Result under the strict barrier: it quiesces the shards
// first, so the answer reflects every update fed before the call.
func (e *TurnstileEngine) ResultFresh() (Neighbourhood, error) { return e.result(true) }

// UpdatesProcessed returns the number of updates fed to the engine.  The
// counter is maintained on the producer side, so polling it is free.
func (e *TurnstileEngine) UpdatesProcessed() int64 { return e.f.count.Load() }
