package feww

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"feww/internal/core"
	"feww/internal/enginesnap"
	"feww/internal/xrand"
)

// Engine-level checkpointing composes the per-shard core snapshots into
// one container.  The container records the resolved engine configuration
// (so a restored engine re-creates the identical partitioning and queue
// tuning), the producer-side element counter, and each shard's
// length-prefixed core snapshot in shard order.  The serialisation loop
// itself is the generic runtime's (runtime.go): a snapshot is taken after
// an internal barrier, so the queues are empty at the instant of
// serialisation and nothing in flight can be lost — every element the
// engine accepted is inside some shard's state.  This file contributes
// the kind-specific headers and their decode/validate halves.
//
// Layout (all fixed-width fields little-endian uint64 unless noted):
//
//	magic   [8]byte "FEWWENG1" (magic and kind: internal/enginesnap)
//	kind    byte    0 = insertion-only Engine, 1 = TurnstileEngine,
//	                2 = StarEngine, 3 = WindowEngine
//	header  kind-specific configuration + element count (see below)
//	shards  Shards times: byte length, then that shard's core snapshot

const (
	engineKindInsertOnly = 0
	engineKindTurnstile  = 1
	engineKindStar       = 2
	engineKindWindow     = 3

	// Container header sizes: magic + kind byte + the fixed uint64 fields
	// each Snapshot writes before the per-shard payloads.  Usage and
	// UsageFresh must agree with Snapshot on these.
	engineSnapHeaderBytes    = enginesnap.HeaderSize + 9*8
	turnstileSnapHeaderBytes = enginesnap.HeaderSize + 11*8
	starSnapHeaderBytes      = enginesnap.HeaderSize + 10*8
	windowSnapHeaderBytes    = enginesnap.HeaderSize + 11*8
)

// Snapshot writes the engine's complete state to w: resolved
// configuration, the ingest counter, and every shard's core snapshot.
// The engine quiesces first (flush + barrier), so the snapshot reflects
// exactly the edges fed before the call; concurrent producers block until
// serialisation finishes.  Restoring with RestoreEngine and feeding the
// same stream suffix reproduces the uninterrupted run exactly.
func (e *Engine) Snapshot(w io.Writer) error {
	return e.snapshot(w, engineKindInsertOnly, []uint64{
		uint64(e.cfg.N),
		uint64(e.cfg.D),
		uint64(e.cfg.Alpha),
		e.cfg.Seed,
		math.Float64bits(e.cfg.ScaleFactor),
		uint64(e.cfg.Shards),
		uint64(e.cfg.BatchSize),
		uint64(e.cfg.QueueDepth),
	})
}

// RestoreEngine reads a snapshot written by (*Engine).Snapshot and returns
// a running engine that continues exactly where the snapshotted one
// stopped, including its shard partitioning and batch/queue tuning.  It
// fails with ErrBadSnapshot if the bytes hold another engine kind's
// snapshot (use RestoreTurnstileEngine / RestoreStarEngine /
// RestoreWindowEngine) or are corrupt.
func RestoreEngine(r io.Reader) (*Engine, error) {
	dec, err := openEngineSnap(r, engineKindInsertOnly, "an insertion-only Engine")
	if err != nil {
		return nil, err
	}
	cfg := EngineConfig{
		Config: Config{
			N:     int64(dec.u64()),
			D:     int64(dec.u64()),
			Alpha: int(dec.u64()),
			Seed:  dec.u64(),
		},
	}
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
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	inners := make([]*core.InsertOnly, cfg.Shards)
	for i := range inners {
		if inners[i], err = restoreShard(dec, core.RestoreInsertOnly, i); err != nil {
			return nil, err
		}
		// The shard snapshot carries its own config; it must be exactly
		// what NewEngine would derive from the container's, or the
		// local/global id mapping (and the universe checks above the
		// engine) are wrong for this shard.
		if got, want := inners[i].Config(), cfg.shardConfig(i, p, seeds.Uint64()); got != want {
			return nil, fmt.Errorf("%w: shard %d config %+v does not match container derivation %+v",
				ErrBadSnapshot, i, got, want)
		}
	}
	eng := newEngineFromInners(cfg, inners)
	eng.f.restoreCount(count)
	return eng, nil
}

// Snapshot writes the turnstile engine's complete state to w; the same
// quiescing and exactness guarantees as (*Engine).Snapshot apply.
func (e *TurnstileEngine) Snapshot(w io.Writer) error {
	return e.snapshot(w, engineKindTurnstile, []uint64{
		uint64(e.cfg.N),
		uint64(e.cfg.M),
		uint64(e.cfg.D),
		uint64(e.cfg.Alpha),
		e.cfg.Seed,
		math.Float64bits(e.cfg.ScaleFactor),
		uint64(e.cfg.MaxSamplers),
		uint64(e.cfg.Shards),
		uint64(e.cfg.BatchSize),
		uint64(e.cfg.QueueDepth),
	})
}

// RestoreTurnstileEngine reads a snapshot written by
// (*TurnstileEngine).Snapshot and returns a running engine that continues
// exactly where the snapshotted one stopped.
func RestoreTurnstileEngine(r io.Reader) (*TurnstileEngine, error) {
	dec, err := openEngineSnap(r, engineKindTurnstile, "a TurnstileEngine")
	if err != nil {
		return nil, err
	}
	cfg := TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{
			N:     int64(dec.u64()),
			M:     int64(dec.u64()),
			D:     int64(dec.u64()),
			Alpha: int(dec.u64()),
			Seed:  dec.u64(),
		},
	}
	cfg.ScaleFactor = math.Float64frombits(dec.u64())
	cfg.MaxSamplers = int(dec.u64())
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
	p := int64(cfg.Shards)
	seeds := xrand.New(cfg.Seed)
	inners := make([]*core.InsertDelete, cfg.Shards)
	for i := range inners {
		if inners[i], err = restoreShard(dec, core.RestoreInsertDelete, i); err != nil {
			return nil, err
		}
		if got, want := inners[i].Config(), cfg.shardConfig(i, p, seeds.Uint64()); got != want {
			return nil, fmt.Errorf("%w: shard %d config %+v does not match container derivation %+v",
				ErrBadSnapshot, i, got, want)
		}
	}
	eng := newTurnstileFromInners(cfg, inners)
	eng.f.restoreCount(count)
	return eng, nil
}

// openEngineSnap consumes the container magic and kind byte of r,
// failing unless the kind is want (what names that engine), and returns
// a decoder positioned at the kind-specific header words.
func openEngineSnap(r io.Reader, want byte, what string) (*wordDecoder, error) {
	br := bufio.NewReader(r)
	kind, err := enginesnap.PeekKind(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if kind != want {
		return nil, fmt.Errorf("%w: snapshot holds engine kind %d, not %s", ErrBadSnapshot, kind, what)
	}
	_, _ = br.Discard(enginesnap.HeaderSize) // peeked above, so it cannot fail
	return &wordDecoder{r: br}, nil
}

// Upper bounds a snapshot header may claim before any allocation is made
// on its behalf.  Far above anything an engine can be configured to, far
// below anything that could OOM the restoring process — a corrupt header
// must fail as ErrBadSnapshot, not as a makeslice panic.
const (
	maxSnapShards     = 1 << 20
	maxSnapBatchSize  = 1 << 24
	maxSnapQueueDepth = 1 << 16
)

// validateEngineSnapHeader sanity-checks the decoded header before any
// shard is reconstructed.
func validateEngineSnapHeader(n int64, shards, batchSize, queueDepth int, count int64) error {
	switch {
	case n < 1:
		return fmt.Errorf("%w: N = %d", ErrBadSnapshot, n)
	case shards < 1 || int64(shards) > n || shards > maxSnapShards:
		return fmt.Errorf("%w: %d shards with N = %d", ErrBadSnapshot, shards, n)
	case batchSize < 1 || batchSize > maxSnapBatchSize:
		return fmt.Errorf("%w: batch size %d", ErrBadSnapshot, batchSize)
	case queueDepth < 1 || queueDepth > maxSnapQueueDepth:
		return fmt.Errorf("%w: queue depth %d", ErrBadSnapshot, queueDepth)
	case count < 0:
		return fmt.Errorf("%w: element count %d", ErrBadSnapshot, count)
	}
	return nil
}

// restoreShard reads one length-prefixed shard snapshot and restores it
// with the given core restore function, verifying the declared length is
// consumed exactly.
func restoreShard[T any](dec *wordDecoder, restore func(io.Reader) (T, error), idx int) (T, error) {
	var zero T
	size := int64(dec.u64())
	if dec.err != nil {
		return zero, dec.err
	}
	if size < 0 {
		return zero, fmt.Errorf("%w: shard %d snapshot length %d", ErrBadSnapshot, idx, size)
	}
	lr := io.LimitReader(dec.r, size)
	inner, err := restore(lr)
	if err != nil {
		return zero, fmt.Errorf("shard %d: %w", idx, err)
	}
	if left, _ := io.Copy(io.Discard, lr); left != 0 {
		return zero, fmt.Errorf("%w: shard %d snapshot has %d trailing bytes", ErrBadSnapshot, idx, left)
	}
	return inner, nil
}

// wordEncoder / wordDecoder mirror the little-endian fixed-width helpers
// of internal/core for the engine container's own fields.
type wordEncoder struct {
	w   io.Writer
	buf [8]byte
	err error
}

func (e *wordEncoder) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *wordEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.bytes(e.buf[:])
}

type wordDecoder struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (d *wordDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if _, err := io.ReadFull(d.r, d.buf[:]); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:])
}
