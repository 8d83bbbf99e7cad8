package l0

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"feww/internal/xrand"
)

func TestOneSparseSingleton(t *testing.T) {
	o := NewOneSparse(xrand.New(1))
	o.Update(42, 3)
	idx, cnt, ok := o.Recover()
	if !ok || idx != 42 || cnt != 3 {
		t.Fatalf("Recover = (%d, %d, %v), want (42, 3, true)", idx, cnt, ok)
	}
}

func TestOneSparseEmpty(t *testing.T) {
	o := NewOneSparse(xrand.New(2))
	if _, _, ok := o.Recover(); ok {
		t.Fatal("empty sketch recovered something")
	}
	if !o.Zero() {
		t.Fatal("empty sketch not Zero")
	}
}

func TestOneSparseCancellation(t *testing.T) {
	o := NewOneSparse(xrand.New(3))
	o.Update(7, 2)
	o.Update(9, 5)
	o.Update(7, -2)
	o.Update(9, -5)
	if !o.Zero() {
		t.Fatal("fully cancelled sketch not Zero")
	}
	o.Update(11, 1)
	idx, cnt, ok := o.Recover()
	if !ok || idx != 11 || cnt != 1 {
		t.Fatalf("post-cancellation Recover = (%d, %d, %v)", idx, cnt, ok)
	}
}

func TestOneSparseRejectsMultiple(t *testing.T) {
	rng := xrand.New(4)
	rejected := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		o := NewOneSparse(rng.Split())
		o.Update(uint64(2*i), 1)
		o.Update(uint64(2*i+1), 1)
		if _, _, ok := o.Recover(); !ok {
			rejected++
		}
	}
	if rejected < trials-2 {
		t.Fatalf("2-sparse vectors accepted as singletons: %d/%d rejected", rejected, trials)
	}
}

func TestOneSparseQuickSingletons(t *testing.T) {
	rng := xrand.New(5)
	f := func(idxRaw uint32, cntRaw int16) bool {
		if cntRaw == 0 {
			cntRaw = 1
		}
		o := NewOneSparse(rng.Split())
		o.Update(uint64(idxRaw), int64(cntRaw))
		idx, cnt, ok := o.Recover()
		return ok && idx == uint64(idxRaw) && cnt == int64(cntRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSSparseRecoversSparseVectors(t *testing.T) {
	rng := xrand.New(6)
	f := func(seeds [6]uint32) bool {
		want := make(map[uint64]int64)
		for i, s := range seeds {
			idx := uint64(s)%10000 + uint64(i)*10000 // distinct indices
			cnt := int64(s%5) + 1
			want[idx] = cnt
		}
		// Recovery is a w.h.p. guarantee: the random bucket hashes can be
		// unlucky for a vector at exactly the sparsity limit.  Allow a few
		// independently-hashed structures per input; fabrication, however,
		// is never allowed on any attempt.
		for attempt := 0; attempt < 3; attempt++ {
			ss := NewSSparse(rng.Split(), 6, 4)
			for idx, cnt := range want {
				ss.Update(idx, cnt)
			}
			got := ss.Recover()
			for idx := range got {
				if _, ok := want[idx]; !ok {
					return false // fabricated coordinate: hard failure
				}
			}
			complete := true
			for idx, cnt := range want {
				if got[idx] != cnt {
					complete = false
					break
				}
			}
			if complete {
				return true
			}
		}
		return false
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSSparseWithDeletionsToSparse(t *testing.T) {
	rng := xrand.New(7)
	ss := NewSSparse(rng, 4, 4)
	// Insert 200 coordinates (way over sparsity), then delete all but 3.
	for i := uint64(0); i < 200; i++ {
		ss.Update(i, 1)
	}
	for i := uint64(0); i < 197; i++ {
		ss.Update(i, -1)
	}
	got := ss.Recover()
	for i := uint64(197); i < 200; i++ {
		if got[i] != 1 {
			t.Fatalf("coordinate %d not recovered: %v", i, got)
		}
	}
	for idx := range got {
		if idx < 197 {
			t.Fatalf("deleted coordinate %d recovered", idx)
		}
	}
}

func TestSamplerReturnsLiveCoordinate(t *testing.T) {
	rng := xrand.New(8)
	s := NewSampler(rng, 1<<20, DefaultParams)
	live := map[uint64]bool{3: true, 77777: true, 1 << 19: true}
	for idx := range live {
		s.Update(idx, 1)
	}
	idx, cnt, ok := s.Sample()
	if !ok {
		t.Fatal("sampler failed on a 3-sparse vector")
	}
	if !live[idx] || cnt != 1 {
		t.Fatalf("sampled dead coordinate (%d, %d)", idx, cnt)
	}
}

func TestSamplerZeroVector(t *testing.T) {
	rng := xrand.New(9)
	s := NewSampler(rng, 1024, DefaultParams)
	if _, _, ok := s.Sample(); ok {
		t.Fatal("sampler produced a coordinate from the zero vector")
	}
	// Insert then fully delete.
	for i := uint64(0); i < 100; i++ {
		s.Update(i, 1)
	}
	for i := uint64(0); i < 100; i++ {
		s.Update(i, -1)
	}
	if idx, cnt, ok := s.Sample(); ok {
		t.Fatalf("sampler produced (%d, %d) from a cancelled vector", idx, cnt)
	}
}

func TestSamplerSurvivesChurn(t *testing.T) {
	rng := xrand.New(10)
	s := NewSampler(rng, 1<<16, DefaultParams)
	// Heavy churn: 2000 inserts, 1990 deletes, 10 survivors.
	for i := uint64(0); i < 2000; i++ {
		s.Update(i, 1)
	}
	for i := uint64(0); i < 1990; i++ {
		s.Update(i, -1)
	}
	idx, cnt, ok := s.Sample()
	if !ok {
		t.Fatal("sampler failed after churn")
	}
	if idx < 1990 || idx >= 2000 || cnt != 1 {
		t.Fatalf("sampled (%d, %d), want a survivor in [1990, 2000)", idx, cnt)
	}
}

// TestSamplerNearUniform draws many independent samplers over a fixed
// small support and chi-square-tests the sampled distribution.
func TestSamplerNearUniform(t *testing.T) {
	rng := xrand.New(11)
	const support = 8
	const trials = 3000
	counts := make([]int, support)
	fails := 0
	for trial := 0; trial < trials; trial++ {
		s := NewSampler(rng.Split(), 1<<12, DefaultParams)
		for i := uint64(0); i < support; i++ {
			s.Update(i*37+5, 1) // spread the support around the universe
		}
		idx, _, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		counts[(idx-5)/37]++
	}
	if fails > trials/20 {
		t.Fatalf("sampler failure rate too high: %d/%d", fails, trials)
	}
	good := trials - fails
	want := float64(good) / support
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 7 degrees of freedom; 99.9th percentile is ~24.3.  Allow extra slack
	// for the min-hash tie-breaking's small bias.
	if chi2 > 35 {
		t.Fatalf("sampler far from uniform: chi2 = %.1f, counts = %v", chi2, counts)
	}
	_ = math.Sqrt // keep math imported for future tolerance tweaks
}

func TestSamplerPanicsOutOfUniverse(t *testing.T) {
	rng := xrand.New(12)
	s := NewSampler(rng, 100, DefaultParams)
	defer func() {
		if recover() == nil {
			t.Error("Update out of universe did not panic")
		}
	}()
	s.Update(100, 1)
}

func TestSpaceWordsPositive(t *testing.T) {
	rng := xrand.New(13)
	s := NewSampler(rng, 1<<10, DefaultParams)
	if s.SpaceWords() <= 0 {
		t.Fatal("SpaceWords not positive")
	}
	ss := NewSSparse(rng, 2, 2)
	if ss.SpaceWords() <= 0 {
		t.Fatal("SSparse SpaceWords not positive")
	}
	o := NewOneSparse(rng)
	if o.SpaceWords() <= 0 {
		t.Fatal("OneSparse SpaceWords not positive")
	}
}

// TestSamplerUpdateAllocs: an update writes the sampler's flat cell arrays
// in place and allocates nothing.
func TestSamplerUpdateAllocs(t *testing.T) {
	s := NewSampler(xrand.New(14), 1<<17, DefaultParams)
	idx := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Update(idx, 1)
		idx = (idx + 7919) % (1 << 17)
	})
	if allocs != 0 {
		t.Fatalf("Sampler.Update allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkSamplerUpdate times one update of a default sampler over the
// 2^17 edge universe of one perfbench turnstile shard.
func BenchmarkSamplerUpdate(b *testing.B) {
	s := NewSampler(xrand.New(15), 1<<17, DefaultParams)
	idx := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(idx, 1)
		idx = (idx + 7919) % (1 << 17)
	}
}
