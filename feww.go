package feww

import (
	"io"

	"feww/internal/core"
	"feww/internal/stream"
)

// Edge is one element of an insertion-only stream: item A in [0, N) arrived
// with witness B.  It aliases the internal stream model so batch slices move
// through every layer without conversion.
type Edge = stream.Edge

// Update is one element of a turnstile stream: an Edge plus its sign
// (Insert or Delete).
type Update = stream.Update

// Insert and Delete are the signs of a turnstile Update.
const (
	Insert = stream.Insert
	Delete = stream.Delete
)

// Neighbourhood is an algorithm's output: a frequent A-vertex together
// with distinct witnesses (B-neighbours) proving its degree.
type Neighbourhood = core.Neighbourhood

// ErrNoWitness is returned when no neighbourhood of the required size was
// found: either the input violated the degree-d promise, or the algorithm's
// random choices failed (probability <= 1/n under the promise).  Witnesses
// are never fabricated — every reported edge was seen in the stream.
var ErrNoWitness = core.ErrNoWitness

// Config parameterises the insertion-only algorithm.
type Config struct {
	// N is the number of possible items (|A| in the paper).
	N int64
	// D is the frequency/degree threshold: the promise is that some item
	// appears at least D times.
	D int64
	// Alpha is the integral approximation factor (>= 1): the output carries
	// at least ceil(D/Alpha) witnesses.  Space decreases steeply in Alpha
	// (the n^(1/Alpha) term of Theorem 3.2); Alpha = 1 stores all items.
	Alpha int
	// Seed makes the run reproducible; distinct seeds give independent runs.
	Seed uint64
	// ScaleFactor (default 1.0) multiplies the theoretical reservoir size;
	// values below 1 trade the w.h.p. guarantee for space.  Leave zero
	// unless you are running ablations.
	ScaleFactor float64
}

// InsertOnly is the insertion-only FEwW algorithm (paper Algorithm 2,
// Theorem 3.2).  It is not safe for concurrent use.
type InsertOnly struct {
	inner *core.InsertOnly
}

// NewInsertOnly constructs the algorithm for the given configuration.
func NewInsertOnly(cfg Config) (*InsertOnly, error) {
	inner, err := core.NewInsertOnly(core.InsertOnlyConfig{
		N: cfg.N, D: cfg.D, Alpha: cfg.Alpha, Seed: cfg.Seed, ScaleFactor: cfg.ScaleFactor,
	})
	if err != nil {
		return nil, err
	}
	return &InsertOnly{inner: inner}, nil
}

// ProcessEdge feeds one occurrence: item a in [0, N) arrived with witness
// b (a timestamp, source address, user id, ... — any satellite datum
// encoded as an integer).
func (io *InsertOnly) ProcessEdge(a, b int64) { io.inner.ProcessEdge(a, b) }

// ProcessEdges feeds a batch of occurrences in order.  It is equivalent to
// calling ProcessEdge per element but amortises the per-edge dispatch; the
// sharded Engine uses it as its shard hand-off unit.
func (io *InsertOnly) ProcessEdges(edges []Edge) { io.inner.ProcessEdges(edges) }

// Result returns a frequent item with at least ceil(D/Alpha) witnesses, or
// ErrNoWitness.  It may be called at any point during the stream.
func (io *InsertOnly) Result() (Neighbourhood, error) { return io.inner.Result() }

// Results returns every distinct frequent element found, each with a full
// ceil(D/Alpha)-witness neighbourhood, sorted by item id.  Useful when
// several items exceed the threshold at once (e.g. multiple concurrent
// attacks); empty exactly when Result returns ErrNoWitness.
func (io *InsertOnly) Results() []Neighbourhood { return io.inner.Results() }

// Best returns the largest neighbourhood collected so far even if it is
// below the ceil(D/Alpha) target; found is false only if nothing was
// collected at all.
func (io *InsertOnly) Best() (nb Neighbourhood, found bool) { return io.inner.Best() }

// WitnessTarget returns ceil(D/Alpha), the guaranteed output size.
func (io *InsertOnly) WitnessTarget() int64 { return io.inner.WitnessTarget() }

// SpaceWords reports the live state in machine words — the quantity the
// paper's space bounds are stated in.
func (io *InsertOnly) SpaceWords() int { return io.inner.SpaceWords() }

// Snapshot serialises the algorithm's complete state (degree table,
// reservoirs, witnesses, RNG streams) to w.  Restoring with
// RestoreInsertOnly and feeding the same stream suffix reproduces the
// uninterrupted run exactly.  This is also the "message" of the paper's
// communication protocols: party i snapshots, party i+1 restores.
func (io *InsertOnly) Snapshot(w io.Writer) error { return io.inner.Snapshot(w) }

// SnapshotSize returns the exact byte length Snapshot would write.
func (io *InsertOnly) SnapshotSize() int { return io.inner.SnapshotSize() }

// RestoreInsertOnly reconstructs an InsertOnly from a Snapshot.
func RestoreInsertOnly(r io.Reader) (*InsertOnly, error) {
	inner, err := core.RestoreInsertOnly(r)
	if err != nil {
		return nil, err
	}
	return &InsertOnly{inner: inner}, nil
}

// ErrBadSnapshot is returned by RestoreInsertOnly on corrupt or
// incompatible input.
var ErrBadSnapshot = core.ErrBadSnapshot

// TurnstileConfig parameterises the insertion-deletion algorithm.
type TurnstileConfig struct {
	// N is the number of possible items (|A|).
	N int64
	// M is the size of the witness universe (|B|).
	M int64
	// D is the degree threshold.
	D int64
	// Alpha is the approximation factor (>= 1).
	Alpha int
	// Seed makes the run reproducible.
	Seed uint64
	// ScaleFactor (default 1.0) multiplies the theoretical L0-sampler
	// counts.  The paper's constants are large; laptop-scale runs typically
	// use 0.01-0.1.  See docs/EXPERIMENTS.md.
	ScaleFactor float64
	// MaxSamplers caps total sampler allocation (default 1 << 20); the
	// constructor fails rather than over-allocating.
	MaxSamplers int
}

// InsertDelete is the insertion-deletion FEwW algorithm (paper Algorithm 3,
// Theorem 5.4).  It is not safe for concurrent use.
type InsertDelete struct {
	inner *core.InsertDelete
}

// NewInsertDelete constructs the algorithm; all samplers are allocated up
// front (the sampled vertex set must be fixed before the stream).
func NewInsertDelete(cfg TurnstileConfig) (*InsertDelete, error) {
	inner, err := core.NewInsertDelete(core.InsertDeleteConfig{
		N: cfg.N, M: cfg.M, D: cfg.D, Alpha: cfg.Alpha, Seed: cfg.Seed,
		ScaleFactor: cfg.ScaleFactor, MaxSamplers: cfg.MaxSamplers,
	})
	if err != nil {
		return nil, err
	}
	return &InsertDelete{inner: inner}, nil
}

// Insert feeds the insertion of edge (a, b).  It panics on an edge outside
// [0, N) x [0, M).
func (id *InsertDelete) Insert(a, b int64) { id.inner.Update(a, b, 1) }

// Delete feeds the deletion of edge (a, b); the edge must currently exist
// (simple-graph turnstile promise).
func (id *InsertDelete) Delete(a, b int64) { id.inner.Update(a, b, -1) }

// ProcessUpdates feeds a batch of signed updates in order; it is equivalent
// to calling Insert/Delete per element.  Like them it panics on an edge
// outside [0, N) x [0, M), and it does so before applying any of the batch.
func (id *InsertDelete) ProcessUpdates(ups []Update) { id.inner.ApplyUpdates(ups) }

// Result returns a frequent item of the final graph with at least
// ceil(D/Alpha) live witnesses, or ErrNoWitness.
func (id *InsertDelete) Result() (Neighbourhood, error) { return id.inner.Result() }

// WitnessTarget returns ceil(D/Alpha).
func (id *InsertDelete) WitnessTarget() int64 { return id.inner.WitnessTarget() }

// SpaceWords reports the live state in machine words.
func (id *InsertDelete) SpaceWords() int { return id.inner.SpaceWords() }
