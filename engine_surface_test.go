package feww

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"feww/internal/stream"
)

// lifecycleEngine is the lifecycle and instrumentation surface every
// engine kind inherits from the runtime.
type lifecycleEngine interface {
	Shards() int
	Flush() error
	Drain() error
	Close()
	Closed() bool
	WitnessTarget() int64
	QueueDepths() []int
	ViewEpochs() []uint64
	Usage() (int, int)
	UsageFresh() (int, int)
	SnapshotSize() int
	Snapshot(w io.Writer) error
}

// lifecycleCase builds one engine kind with a small planted stream: feed
// is the kind's feed entry point (called once before Close, once after),
// and answer renders the kind's query answer under either consistency.
type lifecycleCase struct {
	name  string
	build func(t *testing.T) (eng lifecycleEngine, feed func() error, answer func(fresh bool) string)
}

func lifecycleCases() []lifecycleCase {
	const n, d = 64, 8
	// Items 5 and 6 get d distinct witnesses each, item 40 two.
	var edges []Edge
	for j := int64(0); j < d; j++ {
		edges = append(edges, Edge{A: 5, B: 100 + j}, Edge{A: 6, B: 200 + j})
		if j < 2 {
			edges = append(edges, Edge{A: 40, B: j})
		}
	}
	return []lifecycleCase{
		{"insert-only", func(t *testing.T) (lifecycleEngine, func() error, func(bool) string) {
			eng, err := NewEngine(EngineConfig{Config: Config{N: n, D: d, Alpha: 1, Seed: 1}, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			return eng, func() error { return eng.ProcessEdges(edges) }, func(fresh bool) string {
				if fresh {
					return fmt.Sprint(eng.ResultsFresh())
				}
				return fmt.Sprint(eng.Results())
			}
		}},
		{"turnstile", func(t *testing.T) (lifecycleEngine, func() error, func(bool) string) {
			eng, err := NewTurnstileEngine(TurnstileEngineConfig{
				TurnstileConfig: TurnstileConfig{N: n, M: 256, D: d, Alpha: 2, Seed: 1, ScaleFactor: 0.05},
				Shards:          3,
			})
			if err != nil {
				t.Fatal(err)
			}
			ups := make([]Update, len(edges))
			for i, ed := range edges {
				ups[i] = Update{Edge: ed, Op: stream.Insert}
			}
			return eng, func() error { return eng.ProcessUpdates(ups) }, func(fresh bool) string {
				if fresh {
					return fmt.Sprint(eng.ResultFresh())
				}
				return fmt.Sprint(eng.Result())
			}
		}},
		{"star", func(t *testing.T) (lifecycleEngine, func() error, func(bool) string) {
			eng, err := NewStarEngine(StarEngineConfig{N: n, Alpha: 1, Seed: 1, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			star := undirectedStar(5, seqRange(20, d))
			return eng, func() error { return eng.ProcessHalfEdges(star) }, func(fresh bool) string {
				if fresh {
					return fmt.Sprint(eng.ResultsFresh())
				}
				return fmt.Sprint(eng.Results())
			}
		}},
		{"window", func(t *testing.T) (lifecycleEngine, func() error, func(bool) string) {
			eng, err := NewWindowEngine(WindowEngineConfig{
				Config: Config{N: n, D: d, Alpha: 1, Seed: 1},
				Window: 64, Buckets: 4, Shards: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng, func() error { return eng.ProcessEdges(edges) }, func(fresh bool) string {
				if fresh {
					return fmt.Sprint(eng.ResultsFresh())
				}
				return fmt.Sprint(eng.Results())
			}
		}},
	}
}

// TestEngineLifecycleAllKinds pins the shared lifecycle contract on every
// engine kind: instrumentation shaped by the shard count, Usage exact
// after Drain, Close idempotent, the feed path closed while queries keep
// answering with the final state.
func TestEngineLifecycleAllKinds(t *testing.T) {
	for _, tc := range lifecycleCases() {
		t.Run(tc.name, func(t *testing.T) {
			eng, feed, answer := tc.build(t)
			defer eng.Close()
			if err := feed(); err != nil {
				t.Fatal(err)
			}
			if got := eng.WitnessTarget(); got < 1 {
				t.Fatalf("WitnessTarget = %d, want >= 1", got)
			}
			checkShape := func(when string) {
				t.Helper()
				if q, v, s := len(eng.QueueDepths()), len(eng.ViewEpochs()), eng.Shards(); q != s || v != s {
					t.Fatalf("%s: len(QueueDepths) = %d, len(ViewEpochs) = %d, Shards = %d", when, q, v, s)
				}
			}
			checkShape("before Close")

			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
			words, size := eng.Usage()
			freshWords, freshSize := eng.UsageFresh()
			if words != freshWords || size != freshSize {
				t.Fatalf("after Drain Usage = (%d, %d), UsageFresh = (%d, %d)", words, size, freshWords, freshSize)
			}
			var buf bytes.Buffer
			if err := eng.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != size || eng.SnapshotSize() != size {
				t.Fatalf("Snapshot wrote %d bytes, SnapshotSize = %d, Usage reports %d", buf.Len(), eng.SnapshotSize(), size)
			}
			want := answer(true)
			if !strings.Contains(want, "vertex 5 ") && !strings.Contains(want, "vertex 6 ") {
				t.Fatalf("planted item not answered: %s", want)
			}
			if got := answer(false); got != want {
				t.Fatalf("after Drain published answer %s, fresh %s", got, want)
			}

			if eng.Closed() {
				t.Fatal("Closed before Close")
			}
			eng.Close()
			eng.Close()
			if !eng.Closed() {
				t.Fatal("Closed false after Close")
			}
			for name, call := range map[string]func() error{"Flush": eng.Flush, "Drain": eng.Drain, "feed": feed} {
				if err := call(); !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", name, err)
				}
			}
			for _, fresh := range []bool{false, true} {
				if got := answer(fresh); got != want {
					t.Errorf("after Close (fresh=%v) answer %s, want %s", fresh, got, want)
				}
			}
			checkShape("after Close")
		})
	}
}

// TestEnginePublicMethodSets pins the exported method set of every engine
// kind, so no refactor of the shared runtime surface can silently drop
// or add public API.
func TestEnginePublicMethodSets(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*Engine)(nil)), []string{
			"Best", "BestFresh", "Close", "Closed", "Config", "Drain", "EdgesProcessed", "Flush",
			"ProcessEdge", "ProcessEdges", "QueueDepths", "Result", "ResultFresh", "Results",
			"ResultsFresh", "Shards", "Snapshot", "SnapshotSize", "SpaceWords", "SpaceWordsFresh",
			"Usage", "UsageFresh", "ViewEpochs", "WitnessTarget",
		}},
		{reflect.TypeOf((*TurnstileEngine)(nil)), []string{
			"Close", "Closed", "Config", "Delete", "Drain", "Flush", "Insert", "ProcessUpdates",
			"QueueDepths", "Result", "ResultFresh", "Shards", "Snapshot", "SnapshotSize",
			"SpaceWords", "SpaceWordsFresh", "UpdatesProcessed", "Usage", "UsageFresh",
			"ViewEpochs", "WitnessTarget",
		}},
		{reflect.TypeOf((*StarEngine)(nil)), []string{
			"Best", "BestFresh", "Close", "Closed", "Config", "Drain", "EdgesProcessed", "Flush",
			"Guesses", "ProcessEdge", "ProcessHalfEdge", "ProcessHalfEdges", "QueueDepths",
			"Results", "ResultsFresh", "Shards", "Snapshot", "SnapshotSize", "SpaceWords",
			"SpaceWordsFresh", "Usage", "UsageFresh", "ViewEpochs", "WitnessTarget",
		}},
		{reflect.TypeOf((*WindowEngine)(nil)), []string{
			"Best", "BestFresh", "Buckets", "Close", "Closed", "Config", "Drain", "EdgesProcessed",
			"Flush", "ProcessEdge", "ProcessEdges", "QueueDepths", "Result", "ResultFresh",
			"Results", "ResultsFresh", "Shards", "Snapshot", "SnapshotSize", "SpaceWords",
			"SpaceWordsFresh", "Usage", "UsageFresh", "ViewEpochs", "Window", "WindowSpan",
			"WitnessTarget",
		}},
	} {
		// reflect lists exported methods only, sorted by name.
		got := make([]string, tc.typ.NumMethod())
		for i := range got {
			got[i] = tc.typ.Method(i).Name
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v exported methods:\n got %q\nwant %q", tc.typ, got, tc.want)
		}
	}
}
