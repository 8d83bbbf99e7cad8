package server

import (
	"fmt"
	"io"
	"sync"

	"feww"
)

// Backend is the engine surface fewwd serves: the insertion-only Engine,
// the TurnstileEngine, the StarEngine, or the sliding-window WindowEngine
// behind one adapter interface.
// All engines are façades over the same generic sharded runtime and are
// internally safe for concurrent use, so Backend methods may be called
// from any number of request handlers at once.
//
// Queries take a fresh flag selecting the consistency: false reads the
// shards' latest published result epochs (barrier-free — never stalls
// ingest, never serialises with other queries, lags the accepted stream
// by the in-flight batches plus a short publication throttle), true
// takes the strict barrier and reflects every update accepted before
// the call.
type Backend interface {
	// Kind is the wire name of the backend's row in the engine-kind table
	// (kind.go), reported by /stats and /healthz (where the cluster
	// gateway verifies it per member).
	Kind() string
	// Ingest applies a batch of updates in order.  The engine validates
	// every update against its universe before feeding anything, so a
	// rejected batch leaves the engine untouched; the error wraps
	// feww.ErrOutOfUniverse for out-of-range elements, feww.ErrInvalidOp
	// for a bad op, and feww.ErrClosed when the engine is shutting down.
	// Star backends consume the stream as directed half-edges (the
	// double cover is materialised by the producer).
	Ingest(ups []feww.Update) error
	// Flush hands buffered updates to the shard queues without waiting,
	// bounding how far the published epochs lag a completed request.
	Flush()
	// Best returns the largest neighbourhood collected so far (for the
	// turnstile engine: the Result neighbourhood; for the star engine:
	// the best star, rung-annotated).
	Best(fresh bool) BestAnswer
	// Results returns every full-target neighbourhood found (for the
	// star engine: every center certified at the winning rung).
	Results(fresh bool) ResultsAnswer
	// EpochSum is the sum of the shards' published epochs, read without
	// allocating.  Within one backend's lifetime equal sums are equal
	// epoch vectors, so a published answer computed between two equal
	// readings is exactly that vector's answer: the key of the server's
	// encoded-answer cache (published.go).
	EpochSum() uint64
	// Processed returns the number of stream elements accepted.
	Processed() int64
	// Shards, QueueDepths, ViewEpochs, WitnessTarget and Usage feed the
	// /stats endpoint; Usage reports space words and snapshot bytes (one
	// quiesce when fresh, a few atomic loads when not).
	Shards() int
	QueueDepths() []int
	ViewEpochs() []uint64
	WitnessTarget() int64
	Usage(fresh bool) (spaceWords, snapshotBytes int)
	// Universe reports the configured universe sizes: the item universe n
	// and the witness universe m (0 for the insertion-only and window
	// engines, whose witnesses are unbounded; the global vertex count for
	// the star engine).  The /healthz endpoint reports both so a cluster
	// gateway can verify a member's engine matches the range it is
	// supposed to serve.
	Universe() (n, m int64)
	// Closed reports whether the engine has stopped accepting the stream
	// (Close has run); queries stay valid either way.
	Closed() bool
	// Snapshot serialises the engine state; Restore* round-trips it.
	Snapshot(w io.Writer) error
	// Close drains and stops the engine; the backend stays queryable.
	Close()
}

// BestAnswer is a backend's /best reply.  WitnessTarget is the target
// the answer is judged against: the engine's static ceil(D/Alpha) for
// the flat engines; for the star engine the winning rung's target when
// Found, the ladder ceiling otherwise.  Rung and Guess annotate star
// answers with the certifying ladder position; Rung is -1 for the flat
// engines.
type BestAnswer struct {
	Neighbourhood feww.Neighbourhood
	Found         bool
	WitnessTarget int64
	Rung          int
	Guess         int64
}

// ResultsAnswer is a backend's /results reply; Rung and Guess are -1/0
// for the flat engines, the winning rung for the star engine.
type ResultsAnswer struct {
	Neighbourhoods []feww.Neighbourhood
	Rung           int
	Guess          int64
}

// engineOps is the surface every engine façade shares, courtesy of the
// generic runtime.  commonBackend embeds it, so Go promotes the methods
// Backend takes unchanged; it adapts Flush and Usage, and adds the
// kind's row and universe, so the per-kind backends carry only the
// methods that genuinely differ (ingest and the query merge shape).
type engineOps interface {
	Flush() error
	Shards() int
	QueueDepths() []int
	ViewEpochs() []uint64
	EpochSum() uint64
	WitnessTarget() int64
	Usage() (int, int)
	UsageFresh() (int, int)
	Closed() bool
	Snapshot(w io.Writer) error
	Close()
}

type commonBackend struct {
	engineOps
	kind kindID
	n, m int64 // Universe, fixed at construction
}

func (b commonBackend) Kind() string             { return kinds[b.kind].Name }
func (b commonBackend) Universe() (int64, int64) { return b.n, b.m }
func (b commonBackend) Flush()                   { b.engineOps.Flush() }
func (b commonBackend) Usage(fresh bool) (int, int) {
	if fresh {
		return b.engineOps.UsageFresh()
	}
	return b.engineOps.Usage()
}

// NewInsertOnlyBackend wraps a sharded insertion-only engine.
func NewInsertOnlyBackend(e *feww.Engine) Backend {
	return newFlatBackend(e, insertOnlyKind, e.Config().N)
}

// NewTurnstileBackend wraps a sharded insertion-deletion engine.
func NewTurnstileBackend(e *feww.TurnstileEngine) Backend {
	return &turnstileBackend{commonBackend{e, turnstileKind, e.Config().N, e.Config().M}, e}
}

// NewStarBackend wraps a sharded star-detection engine.
func NewStarBackend(e *feww.StarEngine) Backend {
	return &starBackend{commonBackend{e, starKind, e.Config().N, e.Config().M}, e}
}

// NewWindowBackend wraps a sharded sliding-window engine.
func NewWindowBackend(e *feww.WindowEngine) Backend {
	return windowBackend{newFlatBackend(e, windowKind, e.Config().N), e}
}

// flatEngine is the surface the two flat insert-only kinds share — the
// insertion-only Engine and the WindowEngine: edges in, the runtime's
// default Best/Results merge out.
type flatEngine interface {
	engineOps
	ProcessEdges(edges []feww.Edge) error
	Best() (feww.Neighbourhood, bool)
	BestFresh() (feww.Neighbourhood, bool)
	Results() []feww.Neighbourhood
	ResultsFresh() []feww.Neighbourhood
	EdgesProcessed() int64
}

// flatBackend adapts either flat kind.  The kinds differ only in their
// row and (for the window kind) the geometry probe windowBackend adds on
// top.
type flatBackend struct {
	commonBackend
	e flatEngine
}

func newFlatBackend(e flatEngine, kind kindID, n int64) *flatBackend {
	return &flatBackend{commonBackend{e, kind, n, 0}, e}
}

// Ingest rejects deletions here (the edge type the engine feeds on has no
// sign, and a sliding window forgets by aging out, not by explicit
// removal); universe validation is the engine's own boundary check, so a
// hostile id can never reach the shard router no matter who calls.
func (b *flatBackend) Ingest(ups []feww.Update) error {
	edges, err := b.insertEdges(ups)
	if err != nil {
		return err
	}
	err = b.e.ProcessEdges(*edges)
	putEdgeBuf(edges)
	return err
}

func (b *flatBackend) Best(fresh bool) BestAnswer {
	var (
		nb feww.Neighbourhood
		ok bool
	)
	if fresh {
		nb, ok = b.e.BestFresh()
	} else {
		nb, ok = b.e.Best()
	}
	return BestAnswer{Neighbourhood: nb, Found: ok, WitnessTarget: b.e.WitnessTarget(), Rung: -1}
}

func (b *flatBackend) Results(fresh bool) ResultsAnswer {
	if fresh {
		return ResultsAnswer{Neighbourhoods: b.e.ResultsFresh(), Rung: -1}
	}
	return ResultsAnswer{Neighbourhoods: b.e.Results(), Rung: -1}
}

func (b *flatBackend) Processed() int64 { return b.e.EdgesProcessed() }

// windowBackend is the window kind: the flat adapter plus Window,
// WindowBuckets and WindowSpan, which surface the window geometry and
// position for the health probe and /stats (the windowProbe interface);
// cluster members must agree on the geometry for member windows to
// compose into one coherent global window.
type windowBackend struct {
	*flatBackend
	w *feww.WindowEngine
}

func (b windowBackend) Window() int64              { return b.w.Window() }
func (b windowBackend) WindowBuckets() int64       { return b.w.Buckets() }
func (b windowBackend) WindowSpan() (int64, int64) { return b.w.WindowSpan() }

type turnstileBackend struct {
	commonBackend
	e *feww.TurnstileEngine
}

// Ingest delegates validation entirely to the engine boundary: ops,
// items, and witnesses are all checked there before anything is fed.
func (b *turnstileBackend) Ingest(ups []feww.Update) error {
	return b.e.ProcessUpdates(ups)
}

// Best for the turnstile engine is its Result: the L0-sampler queries
// only certify neighbourhoods once they reach the witness target, so
// there is no meaningful "largest partial" to report.
func (b *turnstileBackend) Best(fresh bool) BestAnswer {
	nb, err := b.result(fresh)
	return BestAnswer{Neighbourhood: nb, Found: err == nil, WitnessTarget: b.e.WitnessTarget(), Rung: -1}
}

func (b *turnstileBackend) Results(fresh bool) ResultsAnswer {
	out := ResultsAnswer{Rung: -1}
	if nb, err := b.result(fresh); err == nil {
		out.Neighbourhoods = []feww.Neighbourhood{nb}
	}
	return out
}

func (b *turnstileBackend) result(fresh bool) (feww.Neighbourhood, error) {
	if fresh {
		return b.e.ResultFresh()
	}
	return b.e.Result()
}

func (b *turnstileBackend) Processed() int64 { return b.e.UpdatesProcessed() }

type starBackend struct {
	commonBackend
	e *feww.StarEngine
}

// Ingest feeds directed half-edges: the stream carries the double cover
// (both orientations of every undirected edge), so a cluster gateway can
// range-route it by center like any other stream.  Deletions are
// rejected here, as for the flat kinds.
func (b *starBackend) Ingest(ups []feww.Update) error {
	edges, err := b.insertEdges(ups)
	if err != nil {
		return err
	}
	err = b.e.ProcessHalfEdges(*edges)
	putEdgeBuf(edges)
	return err
}

func (b *starBackend) Best(fresh bool) BestAnswer {
	var (
		sr feww.StarResult
		ok bool
	)
	if fresh {
		sr, ok = b.e.BestFresh()
	} else {
		sr, ok = b.e.Best()
	}
	if !ok {
		return BestAnswer{WitnessTarget: b.e.WitnessTarget(), Rung: -1}
	}
	return BestAnswer{
		Neighbourhood: sr.Neighbourhood,
		Found:         true,
		WitnessTarget: sr.Target,
		Rung:          sr.Rung,
		Guess:         sr.Guess,
	}
}

func (b *starBackend) Results(fresh bool) ResultsAnswer {
	var res feww.StarResults
	if fresh {
		res = b.e.ResultsFresh()
	} else {
		res = b.e.Results()
	}
	return ResultsAnswer{Neighbourhoods: res.Neighbourhoods, Rung: res.Rung, Guess: res.Guess}
}

func (b *starBackend) Processed() int64 { return b.e.EdgesProcessed() }

// Rungs reports the ladder length for the health probe; cluster members
// must agree on it for their rung indices to merge.
func (b *starBackend) Rungs() int { return len(b.e.Guesses()) }

// edgeBufPool recycles the []Edge conversion buffers of the flat and
// star ingest paths (mirroring the *[]E batch recycling inside the
// engine fanout), so a sustained ingest stream stops allocating a batch-
// sized slice per request chunk.  The engines copy batches into their own
// per-shard buffers before ProcessEdges/ProcessHalfEdges returns, which
// is what makes returning the buffer immediately afterwards safe.
var edgeBufPool = sync.Pool{New: func() any { buf := make([]feww.Edge, 0, 4096); return &buf }}

func putEdgeBuf(buf *[]feww.Edge) {
	*buf = (*buf)[:0]
	edgeBufPool.Put(buf)
}

// insertEdges strips the op sign off an insertion-only batch, rejecting
// deletions with the row's DeletionError.  The returned buffer comes from
// edgeBufPool; the caller hands it back with putEdgeBuf once the engine
// has consumed it.
func (b commonBackend) insertEdges(ups []feww.Update) (*[]feww.Edge, error) {
	for i, u := range ups {
		if u.Op != feww.Insert {
			return nil, fmt.Errorf("update %d of %d: %w", i, len(ups), kinds[b.kind].DeletionError(u))
		}
	}
	bufp := edgeBufPool.Get().(*[]feww.Edge)
	edges := (*bufp)[:0]
	for _, u := range ups {
		edges = append(edges, u.Edge)
	}
	*bufp = edges
	return bufp, nil
}
