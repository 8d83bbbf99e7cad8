// The generic sharded runtime.  Engine (insertion-only), TurnstileEngine
// (insertion-deletion), StarEngine (star detection) and WindowEngine
// (sliding-window) are thin façades over the one implementation in this
// file: the per-item residue partition, the fanout/queue/batch machinery
// (shard.go), the published core.View epochs with their fresh-barrier
// rendezvous, and the FEWWENG1 snapshot container.  The lifecycle and
// instrumentation surface — Shards, Flush, Drain, Close, Closed,
// WitnessTarget, QueueDepths, ViewEpochs, SpaceWords(Fresh),
// Usage(Fresh), SnapshotSize — is defined once here, on engineRuntime,
// and promoted: every façade embeds its runtime.  A façade contributes
// its configuration, boundary validation and feed entry points for its
// element type, the per-shard algorithm (a shardAlgo implementation from
// internal/core), its query-merge selection rules where they differ from
// the default, and its snapshot header.
//
// The parameterisation is deliberately small.  shardAlgo is the whole
// contract between the runtime and an algorithm: a batched mutation
// entry point over shard-local ids, an immutable query view built from
// quiescent state, and exact snapshot serialisation.  Everything the
// serving layers above rely on — barrier-free published reads that are
// never torn, published == fresh after Drain, snapshots that reflect
// exactly the accepted stream — is proved once here and inherited by
// every engine kind, present and future.

package feww

import (
	"bufio"
	"io"
	"sort"
	"sync/atomic"

	"feww/internal/core"
	"feww/internal/enginesnap"
)

// shardAlgo is the per-shard algorithm instance hosted by the runtime:
// one partition's worth of a streaming algorithm over a sub-universe,
// owned by that shard's worker goroutine.  Apply consumes one batch of
// shard-local elements in stream order; View builds the immutable
// published query surface (only ever called by the owning worker, or
// under the runtime's barrier); Snapshot/SnapshotSize serialise the
// complete mutable state for the FEWWENG1 container.
type shardAlgo[E any] interface {
	Apply(batch []E)
	View() core.View
	// QueryBest and QueryResults are the cheap barrier-read halves of
	// View: the same Best/Results/rung surface, no size accounting, and
	// nothing the caller did not ask for.  Only ever read under the
	// runtime's barrier, within its critical section.
	QueryBest() core.View
	QueryResults() core.View
	SpaceWords() int
	Snapshot(w io.Writer) error
	SnapshotSize() int
	WitnessTarget() int64
}

// The four algorithm adapters.  Each lifts an internal/core type onto
// shardAlgo by naming its batched mutation path; every other method
// promotes from the embedded type.
type insertOnlyAlgo struct{ *core.InsertOnly }

func (a insertOnlyAlgo) Apply(batch []Edge) { a.ProcessEdges(batch) }

type turnstileAlgo struct{ *core.InsertDelete }

func (a turnstileAlgo) Apply(batch []Update) { a.ApplyUpdates(batch) }

type starAlgo struct{ *core.StarShard }

func (a starAlgo) Apply(batch []Edge) { a.ProcessEdges(batch) }

type windowAlgo struct{ *core.WindowShard }

func (a windowAlgo) Apply(batch []core.WindowUpdate) { a.WindowShard.Apply(batch) }

// rtShard is one partition: the residue class it owns, the stride P, the
// algorithm instance, and the shard's latest published result epoch.
type rtShard[E any] struct {
	idx    int   // residue class this shard owns
	stride int64 // P, the total shard count
	algo   shardAlgo[E]
	view   atomic.Pointer[publishedView]
}

// local converts a global item id owned by this shard to its local id.
func (sh *rtShard[E]) local(a int64) int64 { return a / sh.stride }

// global converts a shard-local item id back to the global id.
func (sh *rtShard[E]) global(local int64) int64 { return local*sh.stride + int64(sh.idx) }

// shardUniverse returns the size of shard i's slice of an n-item
// universe under the residue partition with stride p: ceil((n-i)/p).
// Constructors and snapshot restores must agree on this exactly, or the
// local/global id mapping breaks.
func shardUniverse(n, p int64, i int) int64 { return (n - int64(i) + p - 1) / p }

// engineRuntime is the shared engine body.  The zero value is not
// usable; build one with newRuntime.
type engineRuntime[E any] struct {
	shards      []*rtShard[E]
	f           *fanout[E]
	headerBytes int // container header size, for Usage/UsageFresh
}

// newRuntime assembles shards around the given algorithm instances —
// freshly built by a façade constructor, or restored from a snapshot —
// and starts the shard workers.  item extracts an element's global item
// id (the routing key); setItem rewrites it, which is how batches are
// remapped to shard-local ids in place before Apply.  Each shard's
// epoch-0 view is published before any worker starts, so the
// barrier-free query path is valid from the first instant (and, after a
// restore, already reflects the restored state).
func newRuntime[E any](name string, batchSize, queueDepth, headerBytes int,
	item func(E) int64, setItem func(*E, int64), algos []shardAlgo[E]) *engineRuntime[E] {
	p := int64(len(algos))
	shards := make([]*rtShard[E], len(algos))
	apply := make([]func([]E), len(algos))
	publish := make([]func(), len(algos))
	for i, algo := range algos {
		sh := &rtShard[E]{idx: i, stride: p, algo: algo}
		sh.view.Store(&publishedView{View: algo.View()})
		shards[i] = sh
		// The worker remaps the batch to local ids in place (it owns the
		// buffer) and feeds the batched path of the inner algorithm.
		apply[i] = func(batch []E) {
			for j := range batch {
				setItem(&batch[j], sh.local(item(batch[j])))
			}
			sh.algo.Apply(batch)
		}
		// Only shard i's worker calls this, so the read-modify-write of
		// the epoch counter is single-writer and the inner state is quiet.
		publish[i] = func() {
			sh.view.Store(&publishedView{View: sh.algo.View(), Epoch: sh.view.Load().Epoch + 1})
		}
	}
	return &engineRuntime[E]{
		shards:      shards,
		f:           newFanout(name, batchSize, queueDepth, item, apply, publish),
		headerBytes: headerBytes,
	}
}

// forEachView visits every shard's query view in shard order.  With
// fresh false it reads the latest published epochs — no locking, no
// stall, the default consistency.  With fresh true it takes the strict
// barrier and reads each shard with the given accessor (QueryBest or
// QueryResults) from quiescent state, so the visit reflects every
// element fed before the call without paying the publication path's
// size accounting inside the barrier.  Both paths hand
// fn the same View shape, which is what makes published and fresh
// answers coincide byte-for-byte on drained state.
func (rt *engineRuntime[E]) forEachView(fresh bool, read func(shardAlgo[E]) core.View, fn func(sh *rtShard[E], v *core.View)) {
	if fresh {
		rt.f.query(func() {
			for _, sh := range rt.shards {
				v := read(sh.algo)
				fn(sh, &v)
			}
		})
		return
	}
	for _, sh := range rt.shards {
		fn(sh, &sh.view.Load().View)
	}
}

// result returns the first full-target neighbourhood in shard order —
// the smallest-id frequent item of the lowest-index shard holding one —
// or ErrNoWitness.  The same selection under both consistencies.  Both
// paths stop at the first shard holding a result: the fresh barrier
// window must not grow with the shards behind the answer.
func (rt *engineRuntime[E]) result(fresh bool) (Neighbourhood, error) {
	nb, err := Neighbourhood{}, error(ErrNoWitness)
	if fresh {
		rt.f.query(func() {
			for _, sh := range rt.shards {
				if v := sh.algo.QueryResults(); len(v.Results) > 0 {
					nb = v.Results[0]
					nb.A = sh.global(nb.A)
					err = nil
					return
				}
			}
		})
		return nb, err
	}
	for _, sh := range rt.shards {
		if v := sh.view.Load(); len(v.Results) > 0 {
			nb = v.Results[0]
			nb.A = sh.global(nb.A)
			return nb, nil
		}
	}
	return nb, err
}

// results concatenates every shard's full-target neighbourhoods, sorted
// by global item id.  The per-item partition guarantees no item is
// reported by two shards, so the merge is a pure concatenation.
func (rt *engineRuntime[E]) results(fresh bool) []Neighbourhood {
	var out []Neighbourhood
	rt.forEachView(fresh, shardAlgo[E].QueryResults, func(sh *rtShard[E], v *core.View) {
		for _, nb := range v.Results {
			nb.A = sh.global(nb.A)
			out = append(out, nb)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].A < out[j].A })
	return out
}

// best max-selects the largest view Best across shards, ties breaking
// toward the lower shard index; found is false only if no shard holds
// anything.
func (rt *engineRuntime[E]) best(fresh bool) (Neighbourhood, bool) {
	var best Neighbourhood
	found := false
	rt.forEachView(fresh, shardAlgo[E].QueryBest, func(sh *rtShard[E], v *core.View) {
		if v.BestOK && (!found || v.Best.Size() > best.Size()) {
			nb := v.Best
			nb.A = sh.global(nb.A)
			best, found = nb, true
		}
	})
	return best, found
}

// Shards returns the number of partitions in use.
func (rt *engineRuntime[E]) Shards() int { return len(rt.shards) }

// Flush hands every buffered element to its shard queue without waiting
// for the shards to apply them.  The published views catch up as soon as
// the workers drain the handed-off batches.
func (rt *engineRuntime[E]) Flush() error { return rt.f.flush() }

// Drain flushes and blocks until every shard has applied everything queued
// so far; afterwards all previously fed elements are reflected in queries
// of both consistencies (the workers republish before acknowledging — on a
// WindowEngine idle shards too, since their horizon moves with the global
// clock).
func (rt *engineRuntime[E]) Drain() error { return rt.f.drain() }

// Close flushes buffered elements, waits for the shards to apply them,
// and stops the shard goroutines.  The engine stays queryable after Close
// (the final published epochs reflect the complete stream); feeding
// further elements returns ErrClosed.  Close is idempotent.
func (rt *engineRuntime[E]) Close() { rt.f.close() }

// Closed reports whether Close has run — i.e. whether the engine still
// accepts the stream.  Queries remain valid either way; the service
// health probe exposes this as its serving flag.
func (rt *engineRuntime[E]) Closed() bool { return rt.f.isClosed() }

// WitnessTarget returns ceil(D/Alpha), the guaranteed output size,
// identical on every shard by construction.  On a StarEngine it is the
// topmost rung's target — the static ceiling ceil(maxGuess/Alpha) on any
// answer's certified size, identical on every member of a cluster over
// the same graph (the coherence value the health probe reports); the
// target an answer actually certifies is its StarResult.Target.
func (rt *engineRuntime[E]) WitnessTarget() int64 { return rt.shards[0].algo.WitnessTarget() }

// QueueDepths samples the number of elements buffered for each shard:
// both the batches handed to the shard queue and not yet applied, and
// the elements still accumulating in the shard's producer-side fill
// buffer — so light load reads as the handful of elements actually
// parked, not zero.  A persistently large depth (approaching the
// configured QueueDepth × BatchSize) marks the shard as the ingest
// bottleneck — typically an item-skew hot spot.  The numbers are
// instantaneous: no barrier is taken, so they may be stale by the time
// they are read.
func (rt *engineRuntime[E]) QueueDepths() []int { return rt.f.queueDepths() }

// ViewEpochs reports each shard's published epoch number — 0 before the
// first publication, then incremented every time the shard's worker
// republishes its view.  Monotonically non-decreasing per shard; a shard
// whose epoch stops advancing under load is applying batches without ever
// idling (publication coalesces under backlog).
func (rt *engineRuntime[E]) ViewEpochs() []uint64 {
	epochs := make([]uint64, len(rt.shards))
	for i, sh := range rt.shards {
		epochs[i] = sh.view.Load().Epoch
	}
	return epochs
}

// SpaceWords reports the state size summed over the latest published
// epochs — every rung (StarEngine) or retained suffix instance
// (WindowEngine) of every shard.  Sharding pays the O(n log n)
// degree-table term once in total (each shard tracks only its own items)
// while the n^(1/Alpha) reservoir term is paid per shard on a universe P
// times smaller.
func (rt *engineRuntime[E]) SpaceWords() int {
	words := 0
	for _, sh := range rt.shards {
		words += sh.view.Load().SpaceWords
	}
	return words
}

// SpaceWordsFresh is SpaceWords under the strict barrier.
func (rt *engineRuntime[E]) SpaceWordsFresh() int {
	// QueryBest/QueryResults skip the size accounting, so the barrier
	// reads the algorithms directly.
	words := 0
	rt.f.query(func() {
		for _, sh := range rt.shards {
			words += sh.algo.SpaceWords()
		}
	})
	return words
}

// Usage reports SpaceWords and SnapshotSize from the latest published
// epochs — what a periodic stats poll should call, since it costs a few
// atomic loads and never quiesces the shards.
func (rt *engineRuntime[E]) Usage() (spaceWords, snapshotBytes int) {
	snapshotBytes = rt.headerBytes
	for _, sh := range rt.shards {
		v := sh.view.Load()
		spaceWords += v.SpaceWords
		snapshotBytes += 8 + v.SnapshotBytes
	}
	return spaceWords, snapshotBytes
}

// UsageFresh reports SpaceWords and SnapshotSize together under a single
// quiesce — exact at the barrier, at the cost of stalling ingest once.
// Periodic stats polls should prefer the barrier-free Usage.
func (rt *engineRuntime[E]) UsageFresh() (spaceWords, snapshotBytes int) {
	snapshotBytes = rt.headerBytes
	rt.f.query(func() {
		for _, sh := range rt.shards {
			spaceWords += sh.algo.SpaceWords()
			snapshotBytes += 8 + sh.algo.SnapshotSize()
		}
	})
	return spaceWords, snapshotBytes
}

// SnapshotSize returns the exact byte length Snapshot would write, under
// the same quiesce Snapshot itself takes.
func (rt *engineRuntime[E]) SnapshotSize() int {
	_, size := rt.UsageFresh()
	return size
}

// snapshot writes the FEWWENG1 container under the runtime's quiesce:
// magic, the engine kind byte, the kind-specific header words, the
// producer-side element counter, then every shard's length-prefixed
// algorithm snapshot in shard order.  The queues are empty at the
// instant of serialisation, so every element the engine accepted is
// inside some shard's state.
func (rt *engineRuntime[E]) snapshot(w io.Writer, kind byte, header []uint64) error {
	var err error
	rt.f.query(func() {
		bw := bufio.NewWriter(w)
		enc := &wordEncoder{w: bw}
		enc.bytes(enginesnap.Magic[:])
		enc.bytes([]byte{kind})
		for _, h := range header {
			enc.u64(h)
		}
		enc.u64(uint64(rt.f.count.Load()))
		for _, sh := range rt.shards {
			enc.u64(uint64(sh.algo.SnapshotSize()))
			if enc.err == nil {
				enc.err = sh.algo.Snapshot(bw)
			}
		}
		if enc.err != nil {
			err = enc.err
			return
		}
		err = bw.Flush()
	})
	return err
}
