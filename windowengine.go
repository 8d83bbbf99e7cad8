// WindowEngine is the fourth façade over the generic sharded runtime
// (runtime.go): sliding-window FEwW — "which item is frequent with
// witnesses over the last Window updates" — served with the exact
// contract of the other three kinds.  Each shard hosts a
// core.WindowShard: a ladder of suffix InsertOnly instances started at
// bucket boundaries of the *global* stream, serving the oldest instance
// still inside the window and expiring whole instances in O(1); see the
// WindowShard godoc for the construction and its space/recency trade-off
// against the paper's Algorithm 2 bounds.
//
// Two runtime hooks make the window engine-wide rather than per-shard.
// First, every accepted edge is stamped with its 0-based global arrival
// position — reserved atomically, stamped before routing — so bucket
// boundaries align across shards and a shard's answers age against the
// whole stream's progress, not just its own sub-stream's.  Second, the
// engine owns the clock the shards age against (the accepted count,
// advanced by a CAS-max at each reservation), and shard workers
// republish on every barrier even when idle: a shard whose items stopped arriving still
// ages out as *other* shards' traffic advances the clock, and
// Drain still leaves published and fresh answers coinciding.
package feww

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"feww/internal/core"
	"feww/internal/stream"
	"feww/internal/xrand"
)

// WindowEngineConfig parameterises the sharded sliding-window engine.
type WindowEngineConfig struct {
	// Config describes the global problem exactly as for Engine: universe
	// size N, frequency threshold D, approximation factor Alpha, master
	// Seed, reservoir ScaleFactor.  D counts in-window occurrences.
	Config

	// Window is the sliding window length W, in accepted updates across
	// the whole engine (all shards).  Required, >= 1.
	Window int64
	// Buckets is the number of sub-windows B (default 8, clamped to
	// Window): expiry happens in whole buckets of width ceil(W/B), live
	// space is multiplied by at most B+1, and the served window's one-
	// sided slack is under one bucket width.  Cluster members of one
	// logical window must share B (and split W); the gateway checks.
	Buckets int64

	// Shards, BatchSize, QueueDepth behave exactly as in EngineConfig.
	Shards     int
	BatchSize  int
	QueueDepth int
}

// resolve applies defaults and clamps; the resolved form is what
// Snapshot persists.
func (cfg *WindowEngineConfig) resolve() error {
	if cfg.Window < 1 {
		return fmt.Errorf("feww: WindowEngine config: Window = %d, want >= 1", cfg.Window)
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 8
		if cfg.Buckets > cfg.Window {
			cfg.Buckets = cfg.Window
		}
	}
	if cfg.Buckets < 1 || cfg.Buckets > cfg.Window {
		return fmt.Errorf("feww: WindowEngine config: Buckets = %d, want 1 <= Buckets <= Window = %d",
			cfg.Buckets, cfg.Window)
	}
	return resolveShardParams("WindowEngine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

// shardConfig derives shard i's WindowShard configuration; snapshot
// restore verifies shard snapshots against exactly this derivation.
// Window and Buckets are global, not divided: positions are global
// stream positions, so every shard ages against the same boundaries.
func (cfg *WindowEngineConfig) shardConfig(i int, p int64, seed uint64) core.WindowShardConfig {
	return core.WindowShardConfig{
		N:           shardUniverse(cfg.N, p, i),
		D:           cfg.D,
		Alpha:       cfg.Alpha,
		Window:      cfg.Window,
		Buckets:     cfg.Buckets,
		Seed:        seed,
		ScaleFactor: cfg.ScaleFactor,
	}
}

// WindowEngine is the sharded, batched sliding-window engine.  It
// carries the runtime's full contract — safe for any number of
// concurrent producers and queriers, deterministic under a fixed seed
// and single producer, barrier-free published queries with Fresh
// variants, exact Snapshot/Restore — inherited from the same
// implementation the other engine kinds run on.
type WindowEngine struct {
	cfg   WindowEngineConfig
	clock atomic.Int64 // accepted updates; the shards' shared age source
	*engineRuntime[core.WindowUpdate]
}

// NewWindowEngine constructs a sharded window engine and starts its
// shard goroutines.  Shard p owns items {a in [0, N) : a % P == p}, each
// as a WindowShard over a universe of size ceil((N-p)/P) with a seed
// derived from cfg.Seed.
func NewWindowEngine(cfg WindowEngineConfig) (*WindowEngine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	eng := &WindowEngine{cfg: cfg}
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	shards := make([]*core.WindowShard, cfg.Shards)
	for i := range shards {
		ws, err := core.NewWindowShard(cfg.shardConfig(i, p, seeds.Uint64()), eng.clock.Load)
		if err != nil {
			return nil, fmt.Errorf("feww: WindowEngine shard %d: %w", i, err)
		}
		shards[i] = ws
	}
	eng.start(shards)
	return eng, nil
}

// start assembles the runtime around existing shards (fresh or restored)
// and installs the two window hooks.  The restore path must store the
// clock (and only then call start): the runtime publishes each shard's
// epoch-0 view during construction, and those views judge instance
// liveness by the clock.
func (e *WindowEngine) start(shards []*core.WindowShard) {
	algos := make([]shardAlgo[core.WindowUpdate], len(shards))
	for i, ws := range shards {
		algos[i] = windowAlgo{ws}
	}
	e.engineRuntime = newRuntime("WindowEngine", e.cfg.BatchSize, e.cfg.QueueDepth, windowSnapHeaderBytes,
		func(u core.WindowUpdate) int64 { return u.A },
		func(u *core.WindowUpdate, a int64) { u.A = a },
		algos)
	// Positions are dense, unique and reservation-ordered, and the clock
	// equals the accepted count.  The clock advances in the reserve hook —
	// once per reservation, before any element of the range is stamped or
	// routed — so a batch handed to a worker happens-after the clock
	// covering its last element, and a worker's view never treats an
	// instance as live that its own batch already aged out.  Reservations
	// race lock-free, so the advance is a CAS-max: a producer whose range
	// linearised earlier must never drag the clock backwards just because
	// it reached the hook later.
	e.f.reserve = func(base, n int64) {
		for {
			cur := e.clock.Load()
			if base+n <= cur || e.clock.CompareAndSwap(cur, base+n) {
				return
			}
		}
	}
	e.f.stamp = func(u *core.WindowUpdate, pos int64) {
		u.Pos = pos
	}
	// Idle shards must republish at barriers: their liveness horizon moves
	// with the global clock even when no local traffic arrives.
	e.f.publishOnAck = true
}

// Config returns the resolved configuration the engine runs with; it is
// also the configuration a snapshot persists.
func (e *WindowEngine) Config() WindowEngineConfig { return e.cfg }

// Window returns the configured window length W.
func (e *WindowEngine) Window() int64 { return e.cfg.Window }

// Buckets returns the resolved sub-window count B.
func (e *WindowEngine) Buckets() int64 { return e.cfg.Buckets }

// WindowSpan returns the stream-position interval the engine currently
// serves: start is the oldest bucket boundary still inside the window
// (0 until the stream outgrows it), end the accepted count.  It is what
// the server surfaces as the window position on /stats.
func (e *WindowEngine) WindowSpan() (start, end int64) {
	end = e.clock.Load()
	return core.WindowStart(end, e.cfg.Window, e.cfg.Buckets), end
}

// ProcessEdge feeds one inserted edge (a, b).  The update occupies one
// window position; what it displaces is whatever bucket falls out of the
// window as the stream advances.  Errors as (*Engine).ProcessEdge.
func (e *WindowEngine) ProcessEdge(a, b int64) error {
	if err := checkEdge(e.cfg.N, 0, 0, 1, a, b); err != nil {
		return err
	}
	return e.f.add(core.WindowUpdate{Edge: stream.Edge{A: a, B: b}})
}

// windowBufPool recycles the []core.WindowUpdate conversion buffers of
// ProcessEdges (as *[]T, so recycling does not re-box the slice header).
// The fanout copies batches into per-shard buffers before returning, so
// a buffer is safe to recycle as soon as addBatch returns.
var windowBufPool sync.Pool

// ProcessEdges feeds a batch of inserted edges in order.  The slice is
// validated whole, rejected atomically, converted into position-carrying
// updates through a pooled buffer, and copied into per-shard buffers;
// the caller keeps ownership.
func (e *WindowEngine) ProcessEdges(edges []Edge) error {
	for i, ed := range edges {
		if err := checkEdge(e.cfg.N, 0, i, len(edges), ed.A, ed.B); err != nil {
			return err
		}
	}
	var buf *[]core.WindowUpdate
	if v := windowBufPool.Get(); v != nil {
		buf = v.(*[]core.WindowUpdate)
	} else {
		buf = new([]core.WindowUpdate)
	}
	ups := (*buf)[:0]
	for _, ed := range edges {
		ups = append(ups, core.WindowUpdate{Edge: ed})
	}
	err := e.f.addBatch(ups)
	*buf = ups[:0]
	windowBufPool.Put(buf)
	return err
}

// Result returns the first in-window full-target neighbourhood in shard
// order, or ErrNoWitness; see (*Engine).Result for the consistency
// contract.
func (e *WindowEngine) Result() (Neighbourhood, error) { return e.result(false) }

// ResultFresh is Result under the strict barrier.
func (e *WindowEngine) ResultFresh() (Neighbourhood, error) { return e.result(true) }

// Results returns every item holding a full ceil(D/Alpha)-witness
// in-window neighbourhood, sorted by item id, from the latest published
// epochs.  Witnesses are never older than Window updates.
func (e *WindowEngine) Results() []Neighbourhood { return e.results(false) }

// ResultsFresh is Results under the strict barrier.
func (e *WindowEngine) ResultsFresh() []Neighbourhood { return e.results(true) }

// Best returns the largest in-window neighbourhood collected so far,
// possibly below the witness target; found is false only if nothing
// in-window is held at all.
func (e *WindowEngine) Best() (Neighbourhood, bool) { return e.best(false) }

// BestFresh is Best under the strict barrier.
func (e *WindowEngine) BestFresh() (Neighbourhood, bool) { return e.best(true) }

// EdgesProcessed returns the number of updates accepted over the
// engine's lifetime — the window's end position.
func (e *WindowEngine) EdgesProcessed() int64 { return e.f.count.Load() }

// Snapshot writes the engine's complete state in the FEWWENG1 container
// (kind byte 3); the same quiescing and exactness guarantees as
// (*Engine).Snapshot apply.  Bucket boundaries are global positions, so
// the container needs no extra geometry beyond Window, Buckets and the
// accepted count: each shard serialises its live suffix instances with
// their boundary labels, and restore re-derives everything else.
func (e *WindowEngine) Snapshot(w io.Writer) error {
	return e.snapshot(w, engineKindWindow, []uint64{
		uint64(e.cfg.N),
		uint64(e.cfg.D),
		uint64(e.cfg.Alpha),
		uint64(e.cfg.Window),
		uint64(e.cfg.Buckets),
		e.cfg.Seed,
		math.Float64bits(e.cfg.ScaleFactor),
		uint64(e.cfg.Shards),
		uint64(e.cfg.BatchSize),
		uint64(e.cfg.QueueDepth),
	})
}

// RestoreWindowEngine reads a snapshot written by (*WindowEngine).Snapshot
// and returns a running engine that continues exactly where the
// snapshotted one stopped: same window geometry, same bucket boundaries,
// same positions — the next accepted update is stamped with the position
// after the last pre-snapshot one, so the restored stream is
// indistinguishable from an uninterrupted run.
func RestoreWindowEngine(r io.Reader) (*WindowEngine, error) {
	dec, err := openEngineSnap(r, engineKindWindow, "a WindowEngine")
	if err != nil {
		return nil, err
	}
	cfg := WindowEngineConfig{
		Config: Config{
			N:     int64(dec.u64()),
			D:     int64(dec.u64()),
			Alpha: int(dec.u64()),
		},
		Window:  int64(dec.u64()),
		Buckets: int64(dec.u64()),
	}
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
	if cfg.Window < 1 || cfg.Buckets < 1 || cfg.Buckets > cfg.Window {
		return nil, fmt.Errorf("%w: window header W %d B %d", ErrBadSnapshot, cfg.Window, cfg.Buckets)
	}
	// The clock must be in place before any shard view is built: the
	// runtime publishes epoch-0 views during start, and a zero clock
	// would misjudge every restored instance's liveness.
	eng := &WindowEngine{cfg: cfg}
	eng.clock.Store(count)
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	shards := make([]*core.WindowShard, cfg.Shards)
	for i := range shards {
		want := cfg.shardConfig(i, p, seeds.Uint64())
		// RestoreWindowShard cross-checks every instance snapshot against
		// the derived configuration, so no separate comparison is needed.
		restore := func(r io.Reader) (*core.WindowShard, error) {
			return core.RestoreWindowShard(r, want, eng.clock.Load)
		}
		if shards[i], err = restoreShard(dec, restore, i); err != nil {
			return nil, err
		}
	}
	eng.start(shards)
	eng.f.restoreCount(count)
	return eng, nil
}
