package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"feww/internal/stream"
	"feww/internal/workload"
)

// goldenTurnstileSnapshotSHA256 is the SHA-256 of the FEWWSNT1 snapshot of
// turnstileSnapCfg after the whole turnstileSnapStream, fed one update at a
// time.  It was recorded before the samplers moved to a flat cell layout and
// a sampler-major batch apply, so it pins both the random choices and the
// snapshot cell order: a snapshot written by an older build restores
// bit-exactly into this one.
const goldenTurnstileSnapshotSHA256 = "4d2ee35248a76f8500b34c358512e893ee72c4639913cf0487f228fe3e839ade"

func snapshotBytes(t testing.TB, id *InsertDelete) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := id.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTurnstileSnapshotGolden(t *testing.T) {
	algo, err := NewInsertDelete(turnstileSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, ups := turnstileSnapStream(t)
	for _, u := range ups {
		algo.Update(u.A, u.B, int(u.Op))
	}
	snap := snapshotBytes(t, algo)
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != goldenTurnstileSnapshotSHA256 {
		t.Fatalf("snapshot SHA-256 = %s, want %s", got, goldenTurnstileSnapshotSHA256)
	}
	restored, err := RestoreInsertDelete(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, restored), snap) {
		t.Fatal("golden snapshot does not restore bit-exactly")
	}
}

// churnStream returns a churn stream over turnstileSnapCfg's universe.
func churnStream(t testing.TB, seed uint64) []stream.Update {
	t.Helper()
	inst, err := workload.NewChurn(workload.ChurnConfig{
		Planted: workload.PlantedConfig{
			N: 32, M: 64, Heavy: 2, HeavyDeg: 8,
			NoiseEdges: 60, MaxNoise: 3, Order: workload.Shuffled, Seed: seed,
		},
		ChurnEdges: 150,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Updates
}

// TestApplyUpdatesMatchesPerUpdate: the sampler-major batch apply leaves
// exactly the state of one Update call per element, for any cut of the
// stream into batches.
func TestApplyUpdatesMatchesPerUpdate(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		ups := churnStream(t, seed)
		cfg := turnstileSnapCfg()
		cfg.Seed = seed

		ref, err := NewInsertDelete(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			ref.Update(u.A, u.B, int(u.Op))
		}
		wantSnap := snapshotBytes(t, ref)
		wantNb, wantStrat, wantErr := ref.ResultWithStrategy()

		for _, sizes := range [][]int{{1}, {7}, {512}, {len(ups)}, {1, 7, 512}} {
			algo, err := NewInsertDelete(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for lo, k := 0, 0; lo < len(ups); k++ {
				hi := min(lo+sizes[k%len(sizes)], len(ups))
				algo.ApplyUpdates(ups[lo:hi])
				lo = hi
			}
			if !bytes.Equal(snapshotBytes(t, algo), wantSnap) {
				t.Fatalf("seed %d, batch sizes %v: snapshot differs from per-update Update", seed, sizes)
			}
			nb, strat, err := algo.ResultWithStrategy()
			if strat != wantStrat || err != wantErr || !reflect.DeepEqual(nb, wantNb) {
				t.Fatalf("seed %d, batch sizes %v: result (%v, %v, %v), want (%v, %v, %v)",
					seed, sizes, nb, strat, err, wantNb, wantStrat, wantErr)
			}
		}
	}
}

// TestApplyUpdatesRejectsBatchAtomically: an invalid update anywhere in a
// batch panics before any sampler changes.
func TestApplyUpdatesRejectsBatchAtomically(t *testing.T) {
	algo, err := NewInsertDelete(turnstileSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotBytes(t, algo)
	for _, bad := range []stream.Update{
		{Edge: stream.Edge{A: 1, B: 64}, Op: stream.Insert},
		{Edge: stream.Edge{A: 32, B: 0}, Op: stream.Insert},
		{Edge: stream.Edge{A: -1, B: 0}, Op: stream.Insert},
		{Edge: stream.Edge{A: 1, B: 1}, Op: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid update %+v accepted", bad)
				}
			}()
			algo.ApplyUpdates([]stream.Update{stream.Ins(0, 0), stream.Ins(1, 1), bad})
		}()
		if !bytes.Equal(snapshotBytes(t, algo), before) {
			t.Fatalf("rejected batch ending in %+v changed the state", bad)
		}
	}
	if err := algo.ProcessUpdate(0, 64, 1); err == nil {
		t.Fatal("ProcessUpdate accepted an out-of-universe witness")
	}
}

// TestInsertDeleteRejectsEdgeUniverseOverflow: N*M must fit F_p, p =
// 2^61-1; at N = M = 2^32 the uint64 edge universe wraps to 0.  The tiny
// sizing keeps the sampler budget from rejecting the config first.
func TestInsertDeleteRejectsEdgeUniverseOverflow(t *testing.T) {
	big := InsertDeleteConfig{N: 1 << 32, M: 1 << 32, D: 1, Alpha: 1, Seed: 1, ScaleFactor: 1e-12}
	if _, err := NewInsertDelete(big); err == nil {
		t.Fatal("N = M = 2^32 accepted")
	}
	edge := InsertDeleteConfig{N: 1 << 30, M: 1 << 31, D: 1, Alpha: 1, Seed: 1, ScaleFactor: 1e-12}
	if _, err := NewInsertDelete(edge); err == nil {
		t.Fatal("N*M = 2^61 accepted")
	}
	edge.M--
	if _, err := NewInsertDelete(edge); err != nil {
		t.Fatalf("N*M < 2^61-1 rejected: %v", err)
	}

	// The same header through restore must fail as ErrBadSnapshot.
	algo, err := NewInsertDelete(turnstileSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotBytes(t, algo)
	crafted := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(crafted[8:], 1<<32)  // N
	binary.LittleEndian.PutUint64(crafted[16:], 1<<32) // M
	binary.LittleEndian.PutUint64(crafted[24:], 1)     // D
	binary.LittleEndian.PutUint64(crafted[32:], 1)     // Alpha
	binary.LittleEndian.PutUint64(crafted[48:], math.Float64bits(big.ScaleFactor))
	if _, err := RestoreInsertDelete(bytes.NewReader(crafted)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("overflowing snapshot header: got %v, want ErrBadSnapshot", err)
	}
}

// TestInsertDeleteApplyUpdatesAllocs: a warm batch apply allocates
// nothing; the samplers' flat cell arrays are written in place.
func TestInsertDeleteApplyUpdatesAllocs(t *testing.T) {
	algo, err := NewInsertDelete(turnstileSnapCfg())
	if err != nil {
		t.Fatal(err)
	}
	ups := churnStream(t, 1)
	algo.ApplyUpdates(ups) // sizes the scratch
	if allocs := testing.AllocsPerRun(20, func() { algo.ApplyUpdates(ups) }); allocs != 0 {
		t.Fatalf("ApplyUpdates allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkInsertDeleteApplyUpdates times one shard of the perfbench
// turnstile workload (N = 128 local items, M = 1024, d = 32, alpha = 2,
// scale 0.01) on 512-update batches.  ns/op is per update.
func BenchmarkInsertDeleteApplyUpdates(b *testing.B) {
	algo, err := NewInsertDelete(InsertDeleteConfig{N: 128, M: 1024, D: 32, Alpha: 2, Seed: 1, ScaleFactor: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := workload.NewChurn(workload.ChurnConfig{
		Planted: workload.PlantedConfig{
			N: 128, M: 1024, Heavy: 1, HeavyDeg: 32,
			NoiseEdges: 200, MaxNoise: 12, Order: workload.Shuffled, Seed: 1,
		},
		ChurnEdges: 300,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 512
	ups := inst.Updates
	b.ResetTimer()
	for done := 0; done < b.N; {
		lo := done % len(ups)
		n := min(batch, b.N-done, len(ups)-lo)
		algo.ApplyUpdates(ups[lo : lo+n])
		done += n
	}
}
