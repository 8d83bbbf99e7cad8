package server

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"feww"
	"feww/internal/enginesnap"
	"feww/internal/stream"
)

// TestRestoreBackendAllKinds pins the checkpoint/restore contract for
// every row of the engine-kind table: a Backend snapshot carries the
// row's kind byte, and RestoreBackend turns it into a backend of the
// same kind that continues the stream byte-identically — same final
// snapshot bytes, same query surface — which is what a fewwd restart and
// a cluster rebalance both rely on.  A row without a case fails the
// test.
func TestRestoreBackendAllKinds(t *testing.T) {
	ins := func(a, b int64) feww.Update { return stream.Ins(a, b) }
	del := func(a, b int64) feww.Update { return stream.Del(a, b) }

	// Each case feeds a prefix, snapshots, and then feeds a suffix to
	// both the original and the restored backend.
	cases := []struct {
		kind      string
		build     func(t *testing.T) Backend
		pre, post []feww.Update
	}{
		{
			kind: "insert-only",
			build: func(t *testing.T) Backend {
				eng, err := feww.NewEngine(feww.EngineConfig{
					Config: feww.Config{N: 100, D: 10, Alpha: 2, Seed: 5},
					Shards: 3, BatchSize: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				return NewInsertOnlyBackend(eng)
			},
			pre:  []feww.Update{ins(3, 1), ins(3, 2), ins(7, 9), ins(3, 3)},
			post: []feww.Update{ins(3, 4), ins(3, 5), ins(3, 6), ins(3, 7), ins(3, 8), ins(3, 9), ins(3, 10)},
		},
		{
			kind: "turnstile",
			build: func(t *testing.T) Backend {
				eng, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
					TurnstileConfig: feww.TurnstileConfig{N: 32, M: 128, D: 4, Alpha: 1, Seed: 6, ScaleFactor: 0.3},
					Shards:          2, BatchSize: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				return NewTurnstileBackend(eng)
			},
			pre:  []feww.Update{ins(5, 10), ins(5, 11), ins(8, 3), del(8, 3)},
			post: []feww.Update{ins(5, 12), ins(5, 13), del(5, 10), ins(5, 14)},
		},
		{
			kind: "star",
			build: func(t *testing.T) Backend {
				eng, err := feww.NewStarEngine(feww.StarEngineConfig{
					N: 48, Alpha: 1, Eps: 0.5, Seed: 7, Shards: 3, BatchSize: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				return NewStarBackend(eng)
			},
			// Directed half-edges: a star at 11, both orientations.
			pre: []feww.Update{
				ins(11, 20), ins(20, 11), ins(11, 21), ins(21, 11),
				ins(11, 22), ins(22, 11),
			},
			post: []feww.Update{
				ins(11, 23), ins(23, 11), ins(11, 24), ins(24, 11),
				ins(11, 25), ins(25, 11), ins(11, 26), ins(26, 11),
			},
		},
		{
			kind: "window",
			build: func(t *testing.T) Backend {
				eng, err := feww.NewWindowEngine(feww.WindowEngineConfig{
					Config: feww.Config{N: 100, D: 4, Alpha: 1, Seed: 8},
					Window: 12, Buckets: 3, Shards: 2, BatchSize: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				return NewWindowBackend(eng)
			},
			// The suffix is longer than the window, so the continuation
			// also expires buckets restored from the snapshot.
			pre: []feww.Update{ins(3, 1), ins(3, 2), ins(7, 9), ins(3, 3), ins(7, 10)},
			post: []feww.Update{
				ins(5, 1), ins(5, 2), ins(5, 3), ins(5, 4), ins(5, 5), ins(5, 6), ins(5, 7),
				ins(5, 8), ins(5, 9), ins(5, 10), ins(5, 11), ins(5, 12), ins(5, 13),
			},
		},
	}

	covered := make(map[string]bool)
	for _, tc := range cases {
		covered[tc.kind] = true
	}
	for _, k := range kinds {
		if !covered[k.Name] {
			t.Errorf("engine kind %q has no restore case", k.Name)
		}
	}

	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			be := tc.build(t)
			defer be.Close()
			if err := be.Ingest(tc.pre); err != nil {
				t.Fatal(err)
			}

			var snap bytes.Buffer
			if err := be.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			row, err := KindNamed(tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			b, err := enginesnap.PeekKind(bufio.NewReader(bytes.NewReader(snap.Bytes())))
			if err != nil || b != row.snapshot {
				t.Fatalf("snapshot kind byte %d (%v), row says %d", b, err, row.snapshot)
			}
			restored, err := RestoreBackend(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if restored.Kind() != tc.kind {
				t.Fatalf("RestoreBackend dispatched to kind %q, want %q", restored.Kind(), tc.kind)
			}
			if restored.Processed() != be.Processed() {
				t.Fatalf("restored processed %d, want %d", restored.Processed(), be.Processed())
			}
			n1, m1 := be.Universe()
			n2, m2 := restored.Universe()
			if n1 != n2 || m1 != m2 {
				t.Fatalf("restored universe (%d, %d), want (%d, %d)", n2, m2, n1, m1)
			}

			for _, b := range []Backend{be, restored} {
				if err := b.Ingest(tc.post); err != nil {
					t.Fatal(err)
				}
			}
			var sa, sb bytes.Buffer
			if err := be.Snapshot(&sa); err != nil {
				t.Fatal(err)
			}
			if err := restored.Snapshot(&sb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
				t.Fatal("continuation snapshots are not byte-identical")
			}

			// The query surfaces agree too (fresh: both must reflect the
			// whole stream).
			ba, bb := be.Best(true), restored.Best(true)
			if ba.Found != bb.Found || ba.Rung != bb.Rung || ba.WitnessTarget != bb.WitnessTarget ||
				ba.Neighbourhood.A != bb.Neighbourhood.A || ba.Neighbourhood.Size() != bb.Neighbourhood.Size() {
				t.Fatalf("best answers diverged: %+v vs %+v", ba, bb)
			}
		})
	}
}

// TestRestoreBackendUnknownKind: a snapshot whose header names no row of
// the kind table is a bad snapshot, not an insert-only restore attempt.
func TestRestoreBackendUnknownKind(t *testing.T) {
	eng, err := feww.NewEngine(feww.EngineConfig{Config: feww.Config{N: 10, D: 2, Alpha: 1, Seed: 1}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	be := NewInsertOnlyBackend(eng)
	defer be.Close()
	var snap bytes.Buffer
	if err := be.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	raw[enginesnap.HeaderSize-1] = 0xff
	if _, err := RestoreBackend(bytes.NewReader(raw)); !errors.Is(err, feww.ErrBadSnapshot) {
		t.Fatalf("RestoreBackend(kind byte 0xff) = %v, want ErrBadSnapshot", err)
	}
}
