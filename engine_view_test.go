package feww

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"feww/internal/stream"
)

// viewStride encodes the owning item into every witness (edge (a, j) is
// fed as witness a*viewStride + j), so a reader can verify that a served
// neighbourhood's witnesses all belong to its vertex.  A torn view —
// witnesses from two different publication points, or from another
// vertex's slice — would violate the encoding immediately.
const viewStride = int64(1) << 32

// TestPublishedQueriesNeverTornUnderIngest hammers the barrier-free query
// path while a producer feeds at full rate.  Run under -race this
// validates the publication discipline (atomic epoch pointers, deep-copied
// views); the invariant checks validate the semantics: every published
// neighbourhood is internally consistent, witnesses always match their
// vertex, sizes never exceed the target, and per-shard epochs only move
// forward.
func TestPublishedQueriesNeverTornUnderIngest(t *testing.T) {
	const (
		n       = 64
		d       = 512
		readers = 4
	)
	// Disable the idle-publication throttle so every batch republishes and
	// the readers exercise as many distinct epochs as possible.  Restored
	// after the engine is closed (worker goroutines joined), so there is
	// no concurrent access to the variable.
	prevInterval := publishMinInterval
	publishMinInterval = 0
	defer func() { publishMinInterval = prevInterval }()
	eng, err := NewEngine(EngineConfig{
		Config: Config{N: n, D: d, Alpha: 2, Seed: 9},
		Shards: 4, BatchSize: 32, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	target := eng.WitnessTarget()

	var done atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		done.Store(true)
		t.Errorf(format, args...)
	}
	checkNb := func(nb Neighbourhood, full bool) {
		if nb.A < 0 || nb.A >= n {
			fail("published vertex %d outside the universe", nb.A)
			return
		}
		if full && int64(nb.Size()) != target {
			fail("full-target neighbourhood for %d has %d witnesses, want %d", nb.A, nb.Size(), target)
		}
		if int64(nb.Size()) > target {
			fail("neighbourhood for %d has %d witnesses, above the target %d", nb.A, nb.Size(), target)
		}
		seen := make(map[int64]bool, len(nb.Witnesses))
		for _, w := range nb.Witnesses {
			if w/viewStride != nb.A {
				fail("witness %d does not belong to vertex %d: torn view", w, nb.A)
			}
			if seen[w] {
				fail("duplicate witness %d for vertex %d", w, nb.A)
			}
			seen[w] = true
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevEpochs := eng.ViewEpochs()
			var prevSpace int
			for !done.Load() {
				if nb, ok := eng.Best(); ok {
					checkNb(nb, false)
				}
				for _, nb := range eng.Results() {
					checkNb(nb, true)
				}
				if nb, err := eng.Result(); err == nil {
					checkNb(nb, true)
				}
				// Insertion-only state only grows, and each shard's view
				// pointer is replaced monotonically, so the summed space
				// must never shrink between two reads by the same reader.
				if sw := eng.SpaceWords(); sw < prevSpace {
					fail("SpaceWords went backwards: %d -> %d", prevSpace, sw)
				} else {
					prevSpace = sw
				}
				epochs := eng.ViewEpochs()
				for i := range epochs {
					if epochs[i] < prevEpochs[i] {
						fail("shard %d epoch went backwards: %d -> %d", i, prevEpochs[i], epochs[i])
					}
				}
				prevEpochs = epochs
			}
		}()
	}

	// Single producer: all n items reach full degree d, witnesses encoded.
	for j := int64(0); j < d && !done.Load(); j++ {
		batch := make([]Edge, 0, n)
		for a := int64(0); a < n; a++ {
			batch = append(batch, Edge{A: a, B: a*viewStride + j})
		}
		if err := eng.ProcessEdges(batch); err != nil {
			t.Errorf("ProcessEdges: %v", err)
			break
		}
	}
	done.Store(true)
	wg.Wait()

	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	// After a drain the published path is exact — identical to a barrier
	// read of the same state — and plenty of items must have been found
	// (every item is frequent; the reservoir samples a subset of them).
	results := eng.Results()
	if !reflect.DeepEqual(results, eng.ResultsFresh()) {
		t.Fatal("after drain: published Results differ from fresh Results")
	}
	if len(results) == 0 {
		t.Fatal("after drain: no published results on a satisfied promise")
	}
	for _, nb := range results {
		checkNb(nb, true)
	}
}

// TestPublishedMatchesFreshAfterDrain pins the consistency contract's
// rendezvous point: once Drain returns, the barrier-free path serves
// exactly what the barrier path serves.
func TestPublishedMatchesFreshAfterDrain(t *testing.T) {
	const n, d = 500, 40
	edges, _ := engineStream([]int64{5, 6, 17}, d, n)
	eng, err := NewEngine(EngineConfig{
		Config: Config{N: n, D: d, Alpha: 2, Seed: 3},
		Shards: 4, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ProcessEdges(edges); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	if got, want := eng.Results(), eng.ResultsFresh(); !reflect.DeepEqual(got, want) {
		t.Fatalf("published Results %v != fresh Results %v", got, want)
	}
	gotR, gotErr := eng.Result()
	wantR, wantErr := eng.ResultFresh()
	if gotErr != nil || wantErr != nil || !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("published Result (%v, %v) != fresh Result (%v, %v)", gotR, gotErr, wantR, wantErr)
	}
	gotNb, gotOK := eng.Best()
	wantNb, wantOK := eng.BestFresh()
	if gotOK != wantOK || !reflect.DeepEqual(gotNb, wantNb) {
		t.Fatalf("published Best (%v, %v) != fresh Best (%v, %v)", gotNb, gotOK, wantNb, wantOK)
	}
	if got, want := eng.SpaceWords(), eng.SpaceWordsFresh(); got != want {
		t.Fatalf("published SpaceWords %d != fresh %d", got, want)
	}
	gotW, gotB := eng.Usage()
	wantW, wantB := eng.UsageFresh()
	if gotW != wantW || gotB != wantB {
		t.Fatalf("published Usage (%d, %d) != fresh Usage (%d, %d)", gotW, gotB, wantW, wantB)
	}
}

// TestTurnstilePublishedMatchesFreshAfterDrain is the turnstile twin.
func TestTurnstilePublishedMatchesFreshAfterDrain(t *testing.T) {
	const n, m, d = 64, 1024, 16
	eng, err := NewTurnstileEngine(TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{N: n, M: m, D: d, Alpha: 2, Seed: 2, ScaleFactor: 0.05},
		Shards:          4, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for j := int64(0); j < d; j++ {
		if err := eng.Insert(3, 3*16+j); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	gotNb, gotErr := eng.Result()
	wantNb, wantErr := eng.ResultFresh()
	if !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("published Result err %v != fresh err %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(gotNb, wantNb) {
		t.Fatalf("published Result %v != fresh Result %v", gotNb, wantNb)
	}
	gotW, gotB := eng.Usage()
	wantW, wantB := eng.UsageFresh()
	if gotW != wantW || gotB != wantB {
		t.Fatalf("published Usage (%d, %d) != fresh Usage (%d, %d)", gotW, gotB, wantW, wantB)
	}
}

// TestEngineValidatesUniverse: the engine boundary must reject, with an
// error and without feeding anything, the ids that used to panic the
// shard router (negative) or silently corrupt the residue mapping (>= N).
func TestEngineValidatesUniverse(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{N: 10, D: 2, Alpha: 1, Seed: 1},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for _, tc := range []struct{ a, b int64 }{
		{-1, 0},  // negative item: shard index -1 out of range
		{10, 0},  // item == N: wrong residue class
		{999, 0}, // far out
		{0, -5},  // negative witness
	} {
		if err := eng.ProcessEdge(tc.a, tc.b); !errors.Is(err, ErrOutOfUniverse) {
			t.Errorf("ProcessEdge(%d, %d) = %v, want ErrOutOfUniverse", tc.a, tc.b, err)
		}
	}
	// A batch with one bad edge is rejected whole: nothing is fed.
	err = eng.ProcessEdges([]Edge{{A: 1, B: 1}, {A: -3, B: 0}, {A: 2, B: 2}})
	if !errors.Is(err, ErrOutOfUniverse) {
		t.Fatalf("ProcessEdges with a negative id = %v, want ErrOutOfUniverse", err)
	}
	if got := eng.EdgesProcessed(); got != 0 {
		t.Fatalf("rejected batch fed %d edges, want 0", got)
	}
	// The engine remains fully usable afterwards.
	if err := eng.ProcessEdges([]Edge{{A: 1, B: 1}, {A: 1, B: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if nb, err := eng.Result(); err != nil || nb.A != 1 {
		t.Fatalf("Result after recovery = %v, %v; want item 1", nb, err)
	}
}

// TestTurnstileEngineValidatesUniverse mirrors the check for the
// turnstile boundary, including the op byte and the witness bound M.
func TestTurnstileEngineValidatesUniverse(t *testing.T) {
	eng, err := NewTurnstileEngine(TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{N: 8, M: 16, D: 2, Alpha: 1, Seed: 1, ScaleFactor: 0.05},
		Shards:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if err := eng.Insert(-1, 0); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("Insert(-1, 0) = %v, want ErrOutOfUniverse", err)
	}
	if err := eng.Insert(8, 0); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("Insert(N, 0) = %v, want ErrOutOfUniverse", err)
	}
	if err := eng.Delete(0, 16); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("Delete(0, M) = %v, want ErrOutOfUniverse", err)
	}
	bad := []Update{{Edge: Edge{A: 1, B: 1}, Op: stream.Insert}, {Edge: Edge{A: 1, B: 2}, Op: 7}}
	if err := eng.ProcessUpdates(bad); !errors.Is(err, ErrInvalidOp) {
		t.Errorf("ProcessUpdates with bad op = %v, want ErrInvalidOp", err)
	}
	if got := eng.UpdatesProcessed(); got != 0 {
		t.Fatalf("rejected updates fed %d elements, want 0", got)
	}
	// Close converts further feeding into ErrClosed, not a panic.
	eng.Close()
	if err := eng.Insert(1, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close = %v, want ErrClosed", err)
	}
	if err := eng.ProcessUpdates([]Update{{Edge: Edge{A: 1, B: 1}, Op: stream.Insert}}); !errors.Is(err, ErrClosed) {
		t.Errorf("ProcessUpdates after Close = %v, want ErrClosed", err)
	}
}

// TestTurnstileEngineRejectsEdgeUniverseOverflow: each shard's edge keys
// a*M + b must fit the field F_p, p = 2^61-1.  An N x M universe past that
// is a configuration error, not a panic inside the sampler constructor.
func TestTurnstileEngineRejectsEdgeUniverseOverflow(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng, err := NewTurnstileEngine(TurnstileEngineConfig{
			TurnstileConfig: TurnstileConfig{N: 1 << 32, M: 1 << 32, D: 1, Alpha: 1, Seed: 1, ScaleFactor: 1e-12},
			Shards:          shards,
		})
		if err == nil {
			eng.Close()
			t.Fatalf("%d shards: N = M = 2^32 accepted", shards)
		}
	}
}
