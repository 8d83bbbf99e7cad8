package feww

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"feww/internal/core"
)

// windowStream renders an item sequence the classical frequent-elements
// way: occurrence t of the whole stream becomes edge (item, t), so
// witnesses are arrival positions and in-window witnesses are verifiable
// by value.
func windowStream(items []int64, from int64) []Edge {
	edges := make([]Edge, len(items))
	for i, a := range items {
		edges[i] = Edge{A: a, B: from + int64(i)}
	}
	return edges
}

func repeatItems(n int, items ...int64) []int64 {
	out := make([]int64, 0, n*len(items))
	for i := 0; i < n; i++ {
		out = append(out, items...)
	}
	return out
}

// TestWindowEngineServesRecency is the subsystem's reason to exist: a
// heavy item stops occurring, the stream moves on, and the engine stops
// reporting it — with every reported witness inside the served window.
// Alpha = 1 keeps the assertions exact rather than w.h.p.
func TestWindowEngineServesRecency(t *testing.T) {
	eng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 16, D: 4, Alpha: 1, Seed: 5},
		Window: 32, Buckets: 4,
		Shards: 4, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Phase 1: item 3 heavy.
	if err := eng.ProcessEdges(windowStream(repeatItems(8, 3), 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	results := eng.ResultsFresh()
	if len(results) != 1 || results[0].A != 3 {
		t.Fatalf("phase 1 results = %+v, want item 3", results)
	}

	// Phase 2: the stream moves on to item 7 for more than a full window;
	// item 3 must age out entirely even though its shard sees no traffic.
	if err := eng.ProcessEdges(windowStream(repeatItems(40, 7), 8)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	results = eng.ResultsFresh()
	if len(results) != 1 || results[0].A != 7 {
		t.Fatalf("phase 2 results = %+v, want only item 7 (item 3 aged out)", results)
	}
	start, end := eng.WindowSpan()
	if end != 48 {
		t.Fatalf("WindowSpan end = %d, want 48", end)
	}
	if end-start > eng.Window() || start%8 != 0 { // width = ceil(32/4) = 8
		t.Fatalf("WindowSpan = [%d, %d), want a bucket-aligned span of at most %d", start, end, eng.Window())
	}
	for _, nb := range results {
		for _, b := range nb.Witnesses {
			if b < start || b >= end {
				t.Fatalf("witness %d of item %d outside served span [%d, %d)", b, nb.A, start, end)
			}
		}
	}
}

// TestWindowEnginePublishedMatchesFreshAfterDrain pins the consistency
// rendezvous for the window kind, in the configuration that needs the
// barrier republication hook: a shard whose items stopped arriving must
// still age out in its *published* view, because the clock it ages
// against is advanced by other shards' traffic.
func TestWindowEnginePublishedMatchesFreshAfterDrain(t *testing.T) {
	eng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 8, D: 3, Alpha: 1, Seed: 11},
		Window: 16, Buckets: 4,
		Shards: 4, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Items 0 and 1 live on different shards.  Make 0 heavy, then push the
	// window past it with item-1 traffic only: shard 0 goes idle while its
	// state expires.
	if err := eng.ProcessEdges(windowStream(repeatItems(4, 0), 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessEdges(windowStream(repeatItems(20, 1), 4)); err != nil {
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
	if !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("published Result err %v != fresh err %v", gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("published Result %v != fresh Result %v", gotR, wantR)
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
	// The expiry must actually have happened: item 0 gone everywhere.
	for _, nb := range eng.Results() {
		if nb.A == 0 {
			t.Fatalf("item 0 still published after the window moved past it: %+v", nb)
		}
	}
}

// TestWindowEngineSnapshotRoundTrip pins the kind-3 container contract:
// snapshot mid-window, restore, feed both engines the identical suffix,
// and the states — judged by their next snapshots — must be
// byte-identical, with positions and bucket boundaries continuing
// exactly where the snapshot stopped.
func TestWindowEngineSnapshotRoundTrip(t *testing.T) {
	cfg := WindowEngineConfig{
		Config: Config{N: 24, D: 3, Alpha: 2, Seed: 17},
		Window: 40, Buckets: 5,
		Shards: 3, BatchSize: 8,
	}
	eng, err := NewWindowEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	prefix := repeatItems(9, 2, 5, 2, 9, 2, 11)
	if err := eng.ProcessEdges(windowStream(prefix, 0)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Len(), eng.SnapshotSize(); got != want {
		t.Fatalf("snapshot wrote %d bytes, SnapshotSize says %d", got, want)
	}

	restored, err := RestoreWindowEngine(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.EdgesProcessed(); got != int64(len(prefix)) {
		t.Fatalf("restored EdgesProcessed = %d, want %d", got, len(prefix))
	}
	if restored.Config() != eng.Config() {
		t.Fatalf("restored config %+v != original %+v", restored.Config(), eng.Config())
	}

	// Continue both with the same suffix — long enough to cross bucket
	// boundaries and expire pre-snapshot state.
	suffix := windowStream(repeatItems(12, 7, 13, 7), int64(len(prefix)))
	if err := eng.ProcessEdges(suffix); err != nil {
		t.Fatal(err)
	}
	if err := restored.ProcessEdges(suffix); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := eng.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("post-suffix snapshots diverge: %d vs %d bytes", a.Len(), b.Len())
	}
	if got, want := eng.ResultsFresh(), restored.ResultsFresh(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-suffix results diverge: %v vs %v", got, want)
	}

	// Kind dispatch: the other restore entry points must reject kind 3,
	// and the window restore must reject other kinds.
	if _, err := RestoreEngine(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("RestoreEngine on a window snapshot = %v, want ErrBadSnapshot", err)
	}
	insert, err := NewEngine(EngineConfig{Config: Config{N: 4, D: 2, Alpha: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer insert.Close()
	var insSnap bytes.Buffer
	if err := insert.Snapshot(&insSnap); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreWindowEngine(bytes.NewReader(insSnap.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("RestoreWindowEngine on an insert snapshot = %v, want ErrBadSnapshot", err)
	}
}

// TestWindowEngineValidatesUniverse mirrors the boundary checks of the
// other kinds: bad ids rejected whole, engine usable afterwards, Close
// turns feeding into ErrClosed.
func TestWindowEngineValidatesUniverse(t *testing.T) {
	eng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 10, D: 2, Alpha: 1, Seed: 1},
		Window: 8, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Buckets(); got != 8 {
		t.Fatalf("defaulted Buckets = %d, want 8", got)
	}

	for _, tc := range []struct{ a, b int64 }{{-1, 0}, {10, 0}, {0, -5}} {
		if err := eng.ProcessEdge(tc.a, tc.b); !errors.Is(err, ErrOutOfUniverse) {
			t.Errorf("ProcessEdge(%d, %d) = %v, want ErrOutOfUniverse", tc.a, tc.b, err)
		}
	}
	if err := eng.ProcessEdges([]Edge{{A: 1, B: 1}, {A: -3, B: 0}}); !errors.Is(err, ErrOutOfUniverse) {
		t.Fatalf("batch with bad edge = %v, want ErrOutOfUniverse", err)
	}
	if got := eng.EdgesProcessed(); got != 0 {
		t.Fatalf("rejected batch fed %d edges, want 0", got)
	}
	if _, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 4, D: 1, Alpha: 1}, Window: 0,
	}); err == nil {
		t.Fatal("NewWindowEngine accepted Window = 0")
	}
	if _, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 4, D: 1, Alpha: 1}, Window: 4, Buckets: 9,
	}); err == nil {
		t.Fatal("NewWindowEngine accepted Buckets > Window")
	}
	eng.Close()
	if err := eng.ProcessEdge(1, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("ProcessEdge after Close = %v, want ErrClosed", err)
	}
}

// TestWindowPublishedQueriesNeverTornUnderIngest is the window twin of
// the engine torn-view race test: readers hammer the barrier-free path
// while a producer pushes several windows' worth of encoded traffic
// through, so views are built, republished and *expired* concurrently
// with the reads.  Run under -race this validates the publication
// discipline; the invariant checks validate that nothing torn, alien or
// over-target is ever served.  Unlike the insert-only twin, space may
// legitimately shrink (buckets expire), so only epoch monotonicity is
// asserted on the counters.
func TestWindowPublishedQueriesNeverTornUnderIngest(t *testing.T) {
	const (
		n       = 64
		rounds  = 512
		readers = 4
	)
	prevInterval := publishMinInterval
	publishMinInterval = 0
	defer func() { publishMinInterval = prevInterval }()
	// Alpha = 1 makes the in-window promise exact: the window spans 8
	// rounds, its guaranteed suffix (Window - width + 1 updates) at least
	// 7, so every item is promised once D <= 7.
	eng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: n, D: 6, Alpha: 1, Seed: 9},
		Window: 8 * n, Buckets: 8,
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
			fail("published item %d outside the universe", nb.A)
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
				fail("witness %d does not belong to item %d: torn view", w, nb.A)
			}
			if seen[w] {
				fail("duplicate witness %d for item %d", w, nb.A)
			}
			seen[w] = true
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevEpochs := eng.ViewEpochs()
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
				if _, end := eng.WindowSpan(); end < 0 {
					fail("negative window end %d", end)
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

	// Single producer: each round feeds every item once, witnesses encode
	// their item and round; the stream is several windows long, so early
	// buckets expire while the readers run.
	for j := int64(0); j < rounds && !done.Load(); j++ {
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
	results := eng.Results()
	if !reflect.DeepEqual(results, eng.ResultsFresh()) {
		t.Fatal("after drain: published Results differ from fresh Results")
	}
	if len(results) == 0 {
		t.Fatal("after drain: no published results on a satisfied in-window promise")
	}
	for _, nb := range results {
		checkNb(nb, true)
	}
}

// TestWindowEngineConcurrentProducersStamping pins what "determinism
// across concurrent producers" means after the reserve-then-enqueue
// rework: N goroutines feed the window engine at once, and the engine
// must assign every accepted update a unique, dense arrival position —
// {0, ..., total-1} with no hole and no duplicate — and then serve a set
// that passes the exact sliding-window recount over those positions.
// The interleaving is whatever the atomic reservations linearised into,
// not known in advance; the contract is that the engine commits to ONE
// such order consistently, so the recount built from the observed stamps
// agrees exactly with what the engine serves.  Run under -race this also
// exercises the lock-free stamp path.
func TestWindowEngineConcurrentProducersStamping(t *testing.T) {
	const (
		producers = 4
		perItems  = 8  // items owned per producer
		rounds    = 32 // each producer feeds its items once per round
		n         = producers * perItems
		total     = producers * perItems * rounds
	)
	eng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: n, D: 5, Alpha: 1, Seed: 23},
		Window: 256, Buckets: 4,
		Shards: 4, BatchSize: 16, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Wrap the stamp hook before any producer starts: record which edge
	// got which arrival position.  Stamping happens lock-free on the
	// producer path, so the recording map needs its own lock.
	var (
		mu      sync.Mutex
		posEdge = make(map[int64]Edge, total)
		stamped = eng.f.stamp
	)
	eng.f.stamp = func(u *core.WindowUpdate, pos int64) {
		stamped(u, pos)
		mu.Lock()
		if prev, dup := posEdge[pos]; dup {
			t.Errorf("position %d stamped twice: %+v and A=%d B=%d", pos, prev, u.A, u.B)
		}
		posEdge[pos] = Edge{A: u.A, B: u.B}
		mu.Unlock()
	}

	// Producer p owns items [p*perItems, (p+1)*perItems) and feeds each
	// once per round with a globally unique witness, so the recount can
	// match served witnesses back to recorded updates by value.
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := make([]Edge, perItems)
				for j := range batch {
					a := int64(p*perItems + j)
					batch[j] = Edge{A: a, B: int64(p*1_000_000 + r*perItems + j)}
				}
				if err := eng.ProcessEdges(batch); err != nil {
					t.Errorf("producer %d round %d: %v", p, r, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	// Positions must be dense and unique: exactly {0, ..., total-1}.
	if len(posEdge) != total {
		t.Fatalf("recorded %d distinct positions, want %d", len(posEdge), total)
	}
	for pos := int64(0); pos < total; pos++ {
		if _, ok := posEdge[pos]; !ok {
			t.Fatalf("no update stamped with position %d: positions not dense", pos)
		}
	}

	// Exact sliding-window recount over the recorded positions: with
	// Alpha = 1 the engine must serve exactly the items with >= D
	// occurrences in the served span, and every witness must be the B of
	// an in-span update of that item.
	start, end := eng.WindowSpan()
	if end != total {
		t.Fatalf("WindowSpan end = %d, want %d", end, total)
	}
	counts := make(map[int64]int64, n)
	inSpan := make(map[Edge]bool, end-start)
	for pos := start; pos < end; pos++ {
		e := posEdge[pos]
		counts[e.A]++
		inSpan[e] = true
	}
	want := make(map[int64]bool)
	for a, c := range counts {
		if c >= 5 { // D
			want[a] = true
		}
	}
	served := eng.ResultsFresh()
	got := make(map[int64]bool, len(served))
	for _, nb := range served {
		got[nb.A] = true
		for _, b := range nb.Witnesses {
			if !inSpan[Edge{A: nb.A, B: b}] {
				t.Errorf("witness %d of item %d is not an in-span update of that item", b, nb.A)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served set %v does not match the exact recount %v over span [%d, %d)", got, want, start, end)
	}
}
