// Command fewwd serves a sharded FEwW engine over HTTP: binary stream
// ingest, live witnessed-neighbourhood queries, operational stats, and
// checkpoint/restore.  It is the long-running form of the library — the
// paper's streaming algorithm kept resident so traffic can be fed to it
// from the network and queried while the stream is still arriving.
//
// Usage:
//
//	fewwd -n 1000000 -d 5000 -alpha 2 -addr :8080 -checkpoint /var/lib/feww.ckpt
//	fewwd -restore /var/lib/feww.ckpt -addr :8080 -checkpoint /var/lib/feww.ckpt
//	fewwd -algo turnstile -n 100000 -m 400000 -d 500 -scale 0.05 -addr :8080
//	fewwd -algo star -n 100000 -eps 0.5 -alpha 2 -addr :8080
//	fewwd -algo star -n 25000 -m 100000 -addr :8081   (cluster member: 25k-vertex range of a 100k-vertex graph)
//	fewwd -algo window -n 100000 -d 200 -window 1000000 -buckets 8 -addr :8080
//
// All four engine kinds are façades over the same sharded runtime, so
// the endpoint surface, consistency contract (?fresh=1), checkpointing
// and cluster behaviour are identical; -algo picks the algorithm.  The
// star engine consumes directed half-edges (cmd/fewwgen -kind star
// writes the double cover) and answers with the best star: a vertex plus
// a rung-annotated set of its genuine neighbours.  The window engine
// answers over the last -window accepted updates only (aging out whole
// -buckets sub-windows at a time), so its /stats additionally report the
// served window span.
//
// With -restore the engine kind, universe, seed and shard layout all come
// from the snapshot file; the engine flags are ignored.  On SIGINT/SIGTERM
// the server drains in-flight requests, writes a final checkpoint (when
// -checkpoint is set) and exits, so a restart with -restore resumes the
// stream without losing an accepted edge.
//
// See docs/OPERATIONS.md for the full runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"feww"
	"feww/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		algo       = flag.String("algo", server.InsertOnly.Algo, "engine kind: insert | turnstile | star | window")
		n          = flag.Int64("n", 1_000_000, "item universe size |A| (star: vertices this node owns as star centers)")
		m          = flag.Int64("m", 0, "witness universe size |B| (turnstile: default 4n; star: total graph vertices, default n)")
		d          = flag.Int64("d", 5000, "degree/frequency threshold (unused by star, whose guess ladder covers all degrees)")
		alpha      = flag.Int("alpha", 2, "approximation factor")
		eps        = flag.Float64("eps", 0, "star guess-ladder density (0 = 0.5; final ratio is (1+eps)*alpha)")
		seed       = flag.Uint64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 0, "scale factor (0 = paper constants; turnstile runs usually need 0.01-0.1)")
		shards     = flag.Int("shards", 0, "shard count (0 = GOMAXPROCS)")
		batch      = flag.Int("batch", 0, "edges per shard hand-off batch (0 = default)")
		queue      = flag.Int("queue", 0, "per-shard queue depth in batches (0 = default)")
		checkpoint = flag.String("checkpoint", "", "path POST /checkpoint and the shutdown hook write the snapshot to")
		restore    = flag.String("restore", "", "restore the engine from this snapshot file instead of starting empty")
		maxBody    = flag.Int64("maxbody", 0, "max /ingest body bytes (0 = 1 GiB)")
		window     = flag.Int64("window", 0, "window: sliding window length in accepted updates (required for -algo window)")
		buckets    = flag.Int64("buckets", 0, "window: sub-window bucket count (0 = 8; more buckets = finer expiry, more space)")
	)
	flag.Parse()

	backend, err := buildBackend(*restore, *algo, *n, *m, *d, *alpha, *eps, *seed, *scale, *shards, *batch, *queue, *window, *buckets)
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(backend, server.Config{CheckpointPath: *checkpoint, MaxBodyBytes: *maxBody})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	log.Printf("fewwd: %s engine, %d shards, %d elements restored, listening on %s (GET /healthz for readiness)",
		backend.Kind(), backend.Shards(), backend.Processed(), *addr)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("fewwd: %v: draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Graceful drain timed out with handlers still running.  Force
		// the connections closed before checkpointing, so no handler can
		// ingest past the snapshot and still hand its client a 200 for
		// edges the checkpoint missed.
		log.Printf("fewwd: shutdown: %v; closing connections", err)
		httpSrv.Close()
	}
	if *checkpoint != "" {
		size, err := srv.Checkpoint()
		if err != nil {
			log.Printf("fewwd: final checkpoint: %v", err)
		} else {
			log.Printf("fewwd: final checkpoint: %d bytes to %s", size, *checkpoint)
		}
	}
	// Close the backend the server *currently* holds: a POST /restore
	// (cluster rebalance) may have replaced the one built at startup.
	srv.Backend().Close()
}

// buildBackend restores from a snapshot file or constructs a fresh engine
// of the kind the -algo value algo names.
func buildBackend(restore, algo string, n, m, d int64, alpha int, eps float64, seed uint64, scale float64, shards, batch, queue int, window, buckets int64) (server.Backend, error) {
	if restore != "" {
		f, err := os.Open(restore)
		if err != nil {
			return nil, fmt.Errorf("fewwd: -restore: %w", err)
		}
		defer f.Close()
		backend, err := server.RestoreBackend(f)
		if err != nil {
			return nil, fmt.Errorf("fewwd: restoring %s: %w", restore, err)
		}
		return backend, nil
	}
	kind, err := server.KindForAlgo(algo)
	if err != nil {
		return nil, fmt.Errorf("fewwd: -algo: %w", err)
	}
	switch kind {
	case server.Turnstile:
		if m == 0 {
			m = 4 * n
		}
		eng, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
			TurnstileConfig: feww.TurnstileConfig{
				N: n, M: m, D: d, Alpha: alpha, Seed: seed, ScaleFactor: scale,
			},
			Shards: shards, BatchSize: batch, QueueDepth: queue,
		})
		if err != nil {
			return nil, fmt.Errorf("fewwd: %w (turnstile instances usually need -scale 0.01-0.1)", err)
		}
		return server.NewTurnstileBackend(eng), nil
	case server.Star:
		eng, err := feww.NewStarEngine(feww.StarEngineConfig{
			N: n, M: m, Alpha: alpha, Eps: eps, Seed: seed, ScaleFactor: scale,
			Shards: shards, BatchSize: batch, QueueDepth: queue,
		})
		if err != nil {
			return nil, fmt.Errorf("fewwd: %w", err)
		}
		return server.NewStarBackend(eng), nil
	case server.Window:
		eng, err := feww.NewWindowEngine(feww.WindowEngineConfig{
			Config: feww.Config{N: n, D: d, Alpha: alpha, Seed: seed, ScaleFactor: scale},
			Window: window, Buckets: buckets,
			Shards: shards, BatchSize: batch, QueueDepth: queue,
		})
		if err != nil {
			return nil, fmt.Errorf("fewwd: %w (-algo window needs -window; see -buckets for the expiry granularity)", err)
		}
		return server.NewWindowBackend(eng), nil
	default: // server.InsertOnly
		eng, err := feww.NewEngine(feww.EngineConfig{
			Config: feww.Config{N: n, D: d, Alpha: alpha, Seed: seed, ScaleFactor: scale},
			Shards: shards, BatchSize: batch, QueueDepth: queue,
		})
		if err != nil {
			return nil, fmt.Errorf("fewwd: %w", err)
		}
		return server.NewInsertOnlyBackend(eng), nil
	}
}
