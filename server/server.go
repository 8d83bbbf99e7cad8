// Package server implements fewwd's HTTP layer: network ingest of the
// FEWW binary stream format into a sharded engine, live JSON queries
// while ingest continues, operational stats, and checkpoint/restore.
//
// The service view of the paper (conf_pods_Konrad21) is direct.  The
// engine is the streaming algorithm; POST /ingest delivers the stream in
// arbitrary-size framed chunks; GET /best and GET /results are the FEwW
// query — a frequent item together with witnesses proving its frequency;
// and GET /snapshot is the one-way communication protocol of §4 made
// operational: the complete memory state of party i, restored byte-exactly
// by party i+1 (or by the same host after a restart).
//
// Endpoints:
//
//	POST /ingest      body: FEWW binary stream, or several complete
//	                  streams concatenated back to back (framed ingest;
//	                  internal/stream format)
//	GET  /best        largest witnessed neighbourhood so far, as JSON;
//	                  published replies carry an ETag and answer a
//	                  matching If-None-Match with 304 Not Modified
//	GET  /results     every full-target neighbourhood, as JSON (ETag and
//	                  304 as /best)
//	GET  /stats       per-shard queue depths, counters, snapshot size
//	GET  /healthz     readiness probe: serving flag + universe parameters
//	POST /checkpoint  write a snapshot to the configured checkpoint path
//	GET  /snapshot    stream the snapshot bytes to the caller
//	POST /restore     replace the engine with one restored from the body
//	GET  /            endpoint index
//
// The query endpoints (/best, /results, /stats) are barrier-free by
// default: they read the shards' latest published result epochs, so any
// number of concurrent clients can poll them without stalling ingest or
// each other.  Appending ?fresh=1 opts a request into the strict barrier
// — the engine quiesces and the answer reflects every update accepted
// before the request.  Published answers lag the accepted stream by at
// most the in-flight batches and are never torn: every served
// neighbourhood was genuinely held by the engine at a batch boundary.
//
// A published /best or /results answer changes only when a shard
// publishes a new epoch, so it is encoded once per epoch vector and
// served from that encoding until the next publication (published.go).
// The cached reply carries a content ETag, a hash of its bytes; a
// request whose If-None-Match names it gets 304 Not Modified and no body.
// Fresh replies are never cached and carry no ETag.
//
// All handlers are safe to call concurrently; the engine serialises
// ingest internally.  Ingest is chunk-atomic: a request that fails
// validation mid-stream reports how many updates were accepted before the
// fault (the error carries the byte offset, courtesy of
// stream.ErrBadFormat).  An ingest that races engine shutdown gets HTTP
// 503, not a dead connection.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"feww"
	"feww/internal/stream"
)

// ingestChunk is how many decoded updates are validated and handed to the
// engine at a time while an /ingest body is scanned.
const ingestChunk = 8192

// chunkBufPool recycles the per-request decode buffers of handleIngest,
// so steady-state ingest allocates nothing per request on the decode
// side.  Buffers are fixed at ingestChunk capacity.
var chunkBufPool = sync.Pool{New: func() any { buf := make([]feww.Update, 0, ingestChunk); return &buf }}

// Config parameterises the HTTP layer (the engine itself is configured at
// construction and carried by the Backend).
type Config struct {
	// CheckpointPath is where POST /checkpoint writes the engine
	// snapshot (atomically: temp file + rename).  Empty disables the
	// endpoint.
	CheckpointPath string
	// MaxBodyBytes caps an /ingest request body; 0 means 1 GiB.  A body
	// over the cap is answered 413, with the chunks decoded before the
	// cap applied and counted in Accepted.
	MaxBodyBytes int64
}

// Server serves a Backend over HTTP.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// beMu guards backend, which POST /restore replaces wholesale.  Every
	// handler reads the current backend once through be(); an RLock per
	// request is uncontended except during the swap itself.
	beMu    sync.RWMutex
	backend Backend
	gen     uint64 // bumped by every swap; part of the published-body key

	// bestBody and resultsBody cache the encoded published answers.
	bestBody, resultsBody BodySlot[publishedKey]

	// ckptMu serialises checkpoint file writes only.  The counters are
	// atomics so /stats never waits behind a slow disk checkpoint.
	ckptMu    sync.Mutex
	ckptCount atomic.Int64
	ckptBytes atomic.Int64
}

// New builds a server around a backend.  Call Handler to mount it.
func New(b Backend, cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	s := &Server{backend: b, cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /best", s.handleBest)
	s.mux.HandleFunc("GET /results", s.handleResults)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /restore", s.handleRestore)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Backend returns the engine adapter the server currently serves — the
// one it was built around, or the latest POST /restore replacement.
// Shutdown hooks must go through this accessor rather than hold the
// construction-time value, or they would checkpoint a stale engine.
func (s *Server) Backend() Backend {
	s.beMu.RLock()
	defer s.beMu.RUnlock()
	return s.backend
}

// be is the internal alias the handlers use.
func (s *Server) be() Backend { return s.Backend() }

// pinned returns the current backend together with its generation.
func (s *Server) pinned() (Backend, uint64) {
	s.beMu.RLock()
	defer s.beMu.RUnlock()
	return s.backend, s.gen
}

// swapBackend installs a restored backend and returns the previous one.
// The generation bump invalidates the cached published bodies: epoch
// sums restart with the new backend.
func (s *Server) swapBackend(b Backend) Backend {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	old := s.backend
	s.backend = b
	s.gen++
	return old
}

// Checkpoint writes the engine snapshot to the configured path (temp file
// + rename, so a crash mid-write never corrupts the previous checkpoint)
// and returns the byte count.  It is what POST /checkpoint and the
// shutdown path of fewwd call.
func (s *Server) Checkpoint() (int64, error) {
	if s.cfg.CheckpointPath == "" {
		return 0, errors.New("server: no checkpoint path configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	dir := filepath.Dir(s.cfg.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".feww-checkpoint-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.be().Snapshot(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	// Persist the data before the rename makes it the checkpoint: rename
	// metadata can hit disk before unsynced file contents, which would
	// replace a good checkpoint with a truncated one on power loss.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	size, err := tmp.Seek(0, 2)
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), s.cfg.CheckpointPath); err != nil {
		return 0, err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.ckptCount.Add(1)
	s.ckptBytes.Store(size)
	return size, nil
}

// NeighbourhoodJSON is the wire form of a witnessed neighbourhood.  Rung
// is set by star backends only: the ladder index of the guess that
// certified this neighbourhood, which a cluster gateway needs to merge
// member answers (max over rungs); flat backends omit it.
type NeighbourhoodJSON struct {
	Vertex    int64   `json:"vertex"`
	Size      int     `json:"size"`
	Witnesses []int64 `json:"witnesses"`
	Rung      *int    `json:"rung,omitempty"`
}

func toJSON(nb feww.Neighbourhood) NeighbourhoodJSON {
	return NeighbourhoodJSON{Vertex: nb.A, Size: nb.Size(), Witnesses: nb.Witnesses}
}

// rungJSON annotates a neighbourhood with its star ladder rung; rung < 0
// (a flat engine's answer) leaves the field absent.
func rungJSON(nb feww.Neighbourhood, rung int) NeighbourhoodJSON {
	j := toJSON(nb)
	if rung >= 0 {
		r := rung
		j.Rung = &r
	}
	return j
}

// IngestResponse reports an /ingest outcome.  On a 400 it still carries
// how many updates of the request were accepted before the fault.
type IngestResponse struct {
	Accepted int64  `json:"accepted"`
	Total    int64  `json:"total"`
	Error    string `json:"error,omitempty"`
}

// BestResponse is the /best payload.  For star backends WitnessTarget is
// the winning rung's target (the size the answer certifies), and Guess
// the rung's degree guess Delta'; the rung index itself rides on the
// neighbourhood.  Flat backends report their static ceil(D/Alpha) target
// and omit Guess.
type BestResponse struct {
	Found         bool               `json:"found"`
	WitnessTarget int64              `json:"witness_target"`
	Guess         int64              `json:"guess,omitempty"`
	Neighbourhood *NeighbourhoodJSON `json:"neighbourhood,omitempty"`
}

// StatsResponse is the /stats payload.  Consistency reports which path
// served the numbers: "published" (barrier-free epoch reads, the default)
// or "fresh" (?fresh=1, exact at a barrier).  QueueDepths counts the
// elements buffered per shard — queued batches plus the producer-side
// fill buffer — so a lightly loaded server reports the edges actually
// parked instead of zero.  ViewEpochs is each shard's published epoch
// counter; an epoch that stops advancing under load means that shard is
// saturated and publication is coalescing.
type StatsResponse struct {
	Engine          string   `json:"engine"`
	Consistency     string   `json:"consistency"`
	Shards          int      `json:"shards"`
	Elements        int64    `json:"elements"`
	QueueDepths     []int    `json:"queue_depths"`
	ViewEpochs      []uint64 `json:"view_epochs"`
	SpaceWords      int      `json:"space_words"`
	SnapshotBytes   int      `json:"snapshot_bytes"`
	WitnessTarget   int64    `json:"witness_target"`
	UptimeSeconds   float64  `json:"uptime_seconds"`
	Checkpoints     int64    `json:"checkpoints"`
	CheckpointBytes int64    `json:"checkpoint_bytes"`
	// Window geometry and position, window backends only: the configured
	// window and bucket count, and the currently served span of stream
	// positions [window_start, window_end) — answers cover exactly the
	// updates the engine accepted inside that span.
	Window        int64 `json:"window,omitempty"`
	WindowBuckets int64 `json:"window_buckets,omitempty"`
	WindowStart   int64 `json:"window_start,omitempty"`
	WindowEnd     int64 `json:"window_end,omitempty"`
}

// windowProbe is the optional surface a sliding-window backend exposes on
// top of Backend: the configured geometry and the live span.  /stats and
// /healthz report it when present, exactly as the star backend's Rungs.
type windowProbe interface {
	Window() int64
	WindowBuckets() int64
	WindowSpan() (start, end int64)
}

// CheckpointResponse is the /checkpoint payload.
type CheckpointResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The backend is pinned once per request: a concurrent /restore swap
	// must not split one request's chunks across two engines.
	be := s.be()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// The frame scanner accepts one stream *or* several complete streams
	// concatenated back to back (all declaring the same universe) — the
	// chunked wire format a cluster gateway emits while splitting an
	// inbound request on the fly.  A single-frame body behaves exactly as
	// before; every frame is validated as strictly as a standalone file.
	sc, err := stream.NewFrameScanner(body)
	if err != nil {
		s.ingestError(w, be, 0, err)
		return
	}
	var accepted int64
	bufp := chunkBufPool.Get().(*[]feww.Update)
	defer func() {
		*bufp = (*bufp)[:0]
		chunkBufPool.Put(bufp)
	}()
	batch := (*bufp)[:0]
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := be.Ingest(batch); err != nil {
			return err
		}
		accepted += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		batch = append(batch, sc.Update())
		if len(batch) == ingestChunk {
			if err := flush(); err != nil {
				s.ingestError(w, be, accepted, err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		s.ingestError(w, be, accepted, err)
		return
	}
	if err := flush(); err != nil {
		s.ingestError(w, be, accepted, err)
		return
	}
	// Hand the sub-batch remainder to the shard queues so the published
	// epochs converge to everything this request accepted, instead of
	// parking up to one batch per shard until more traffic arrives.
	be.Flush()
	WriteJSON(w, http.StatusOK, IngestResponse{Accepted: accepted, Total: be.Processed()})
}

func (s *Server) ingestError(w http.ResponseWriter, be Backend, accepted int64, err error) {
	// Chunks accepted before the fault were fed for real; flush them to
	// the shard queues so the published epochs converge to the reported
	// accepted count even if no further traffic arrives.
	be.Flush()
	// A shutdown race is the server's fault, not the client's: the stream
	// was well-formed, the engine just stopped accepting.  503 invites a
	// retry against the restarted instance.  A body over MaxBodyBytes is
	// a 413, as on /restore; anything else is a 400.
	var tooLarge *http.MaxBytesError
	code := http.StatusBadRequest
	if errors.Is(err, feww.ErrClosed) {
		code = http.StatusServiceUnavailable
	} else if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, code, IngestResponse{
		Accepted: accepted,
		Total:    be.Processed(),
		Error:    err.Error(),
	})
}

// WantFresh reports whether the request opted into the strict barrier
// consistency with ?fresh=1 (any value strconv.ParseBool accepts).  A
// request without a query string is answered without allocating.
func WantFresh(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	fresh, err := strconv.ParseBool(r.URL.Query().Get("fresh"))
	return err == nil && fresh
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	if WantFresh(r) {
		WriteJSON(w, http.StatusOK, bestResponse(s.be().Best(true)))
		return
	}
	s.servePublished(w, r, &s.bestBody, func(be Backend) any { return bestResponse(be.Best(false)) })
}

func bestResponse(ans BestAnswer) BestResponse {
	resp := BestResponse{WitnessTarget: ans.WitnessTarget, Guess: ans.Guess}
	if ans.Found {
		j := rungJSON(ans.Neighbourhood, ans.Rung)
		resp.Found, resp.Neighbourhood = true, &j
	}
	return resp
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if WantFresh(r) {
		WriteJSON(w, http.StatusOK, resultsResponse(s.be().Results(true)))
		return
	}
	s.servePublished(w, r, &s.resultsBody, func(be Backend) any { return resultsResponse(be.Results(false)) })
}

func resultsResponse(ans ResultsAnswer) []NeighbourhoodJSON {
	out := make([]NeighbourhoodJSON, len(ans.Neighbourhoods))
	for i, nb := range ans.Neighbourhoods {
		out[i] = rungJSON(nb, ans.Rung)
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	be := s.be()
	fresh := WantFresh(r)
	consistency := "published"
	if fresh {
		consistency = "fresh"
	}
	spaceWords, snapshotBytes := be.Usage(fresh)
	resp := StatsResponse{
		Engine:          be.Kind(),
		Consistency:     consistency,
		Shards:          be.Shards(),
		Elements:        be.Processed(),
		QueueDepths:     be.QueueDepths(),
		ViewEpochs:      be.ViewEpochs(),
		SpaceWords:      spaceWords,
		SnapshotBytes:   snapshotBytes,
		WitnessTarget:   be.WitnessTarget(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Checkpoints:     s.ckptCount.Load(),
		CheckpointBytes: s.ckptBytes.Load(),
	}
	if wb, ok := be.(windowProbe); ok {
		resp.Window, resp.WindowBuckets = wb.Window(), wb.WindowBuckets()
		resp.WindowStart, resp.WindowEnd = wb.WindowSpan()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// HealthResponse is the /healthz payload: the readiness probe plus the
// engine parameters a cluster gateway needs to verify that this node
// matches the universe range it is supposed to serve.  Serving is false
// once the engine has been closed (shutdown in progress — queries still
// answer, ingest returns 503).
type HealthResponse struct {
	Service       string `json:"service"`
	Engine        string `json:"engine"`
	Serving       bool   `json:"serving"`
	N             int64  `json:"n"`
	M             int64  `json:"m,omitempty"`
	WitnessTarget int64  `json:"witness_target"`
	Shards        int    `json:"shards"`
	Elements      int64  `json:"elements"`
	// Rungs is the star backend's guess-ladder length (absent for the
	// flat engines).  Cluster members must agree on it, or their rung
	// indices would not be comparable in the gateway merge.
	Rungs int `json:"rungs,omitempty"`
	// Window and WindowBuckets are the sliding-window backend's geometry
	// (absent for the other kinds).  Cluster members must agree on both,
	// or their member-local windows would not compose into one coherent
	// global window.
	Window        int64 `json:"window,omitempty"`
	WindowBuckets int64 `json:"window_buckets,omitempty"`
}

func (s *Server) healthResponse() HealthResponse {
	be := s.be()
	n, m := be.Universe()
	h := HealthResponse{
		Service:       "fewwd",
		Engine:        be.Kind(),
		Serving:       !be.Closed(),
		N:             n,
		M:             m,
		WitnessTarget: be.WitnessTarget(),
		Shards:        be.Shards(),
		Elements:      be.Processed(),
	}
	if sb, ok := be.(interface{ Rungs() int }); ok {
		h.Rungs = sb.Rungs()
	}
	if wb, ok := be.(windowProbe); ok {
		h.Window, h.WindowBuckets = wb.Window(), wb.WindowBuckets()
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.healthResponse()
	code := http.StatusOK
	if !h.Serving {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// handleRestore replaces the serving engine with one restored from the
// snapshot bytes in the request body — the recipient half of a cluster
// rebalance: the donor's GET /snapshot (its complete memory state, the
// paper's one-way message) posted here brings this node to exactly the
// donor's state.  The swap is atomic with respect to other handlers;
// requests already running against the old engine finish against it (an
// in-flight ingest may then report 503 once the old engine closes, which
// invites the standard retry).  The engine kind, universe, seed and
// shard layout all come from the snapshot, exactly as fewwd -restore.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	backend, err := RestoreBackend(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		code := http.StatusBadRequest
		if errors.As(err, &tooLarge) {
			// The snapshot exceeds this node's -maxbody: the sender's
			// state is fine, this node's cap is too small.
			code = http.StatusRequestEntityTooLarge
		} else if !errors.Is(err, feww.ErrBadSnapshot) && !errors.Is(err, stream.ErrBadFormat) {
			code = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), code)
		return
	}
	old := s.swapBackend(backend)
	// Stop the replaced engine's shard goroutines; it stays queryable for
	// any handler that pinned it before the swap.
	old.Close()
	WriteJSON(w, http.StatusOK, s.healthResponse())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	size, err := s.Checkpoint()
	if err != nil {
		code := http.StatusInternalServerError
		if s.cfg.CheckpointPath == "" {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	WriteJSON(w, http.StatusOK, CheckpointResponse{Path: s.cfg.CheckpointPath, Bytes: size})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Serialise into memory first: the engine quiesces once, the
	// Content-Length is exact even with concurrent ingest, and a
	// serialisation failure can still become a clean 500 instead of an
	// aborted chunked stream.
	var buf bytes.Buffer
	if err := s.be().Snapshot(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{
		"service":          "fewwd",
		"engine":           s.be().Kind(),
		"POST /ingest":     "FEWW binary stream body",
		"GET /best":        "largest witnessed neighbourhood (?fresh=1 for barrier consistency)",
		"GET /results":     "all full-target neighbourhoods (?fresh=1 for barrier consistency)",
		"GET /stats":       "counters, queue depths, view epochs (?fresh=1 for barrier consistency)",
		"GET /healthz":     "readiness probe with engine kind and universe parameters",
		"POST /checkpoint": "write snapshot to the checkpoint path",
		"GET /snapshot":    "stream the snapshot bytes",
		"POST /restore":    "replace the engine with one restored from the snapshot bytes in the body",
	})
}

// WriteJSON writes v as the indented JSON every fewwd and fewwgate reply
// uses.  The encoding is jsonEncoder's, shared with NewBody, so a cached
// published body and an uncached reply cannot drift apart.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status is already on the wire; an encode error here can only
	// mean the client went away.
	_ = jsonEncoder(w).Encode(v)
}

// jsonEncoder is the one JSON encoding of the HTTP surface.
func jsonEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc
}
