package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"feww"
	"feww/internal/stream"
	"feww/server"
)

// Config parameterises a Gateway.
type Config struct {
	// Members lists the fewwd base URLs in range order.  With Replicas R,
	// consecutive runs of R members form one replica group: members
	// [j*R, (j+1)*R) all serve copies of the j-th contiguous range, whose
	// length is discovered from the group's first member's /healthz at
	// construction (every replica must report the same universe).  Members
	// beyond the last full group are spares: idle nodes the reconciler
	// re-seeds into a group when a replica dies.
	Members []string
	// Replicas is the number of copies kept of each range (default 1, the
	// unreplicated layout of earlier versions).  Every ingest window fans
	// out to all live replicas of the owning group synchronously, so the
	// copies stay byte-identical; published reads rotate across them.
	Replicas int
	// MemberTimeout bounds each member request end to end (default 30s;
	// negative disables the deadline).  One slow node then fails its slice
	// of a scatter-gather instead of wedging the whole fan-out.
	MemberTimeout time.Duration
	// MaxBodyBytes caps an /ingest request body; 0 means 256 MiB.  A body
	// over the cap is rejected with HTTP 413 at the same boundary as an
	// invalid update: by default the windows before it stay applied, with
	// ?atomic=1 nothing is.  The default path holds only one decode window
	// regardless of body size, so the cap is a request-size sanity bound
	// there; ?atomic=1 holds the request *decoded* — roughly 3-4x the
	// varint-encoded size — until it has all validated, which is why the
	// default stays smaller than a node's (1 GiB).  Producers using atomic
	// ingest should chunk large replays into multiple requests, as
	// cmd/fewwload does.
	MaxBodyBytes int64
	// ChunkUpdates is the streaming-ingest window: the gateway decodes,
	// validates, and splits this many updates at a time, then forwards
	// each replica's share as one frame into its already-open member
	// request (default 8192).  Larger windows amortise frame headers and
	// syscalls; smaller ones tighten the reject-before-forward boundary
	// and the gateway's resident window.
	ChunkUpdates int
}

// Gateway is the cluster front-end: one logical FEwW engine over the
// member nodes.  It is an http.Handler factory (Handler) mirroring the
// fewwd endpoint surface, plus a rebalance operation for moving ranges
// between nodes and an optional autonomous Reconciler.  All handlers are
// safe for concurrent use.
type Gateway struct {
	cfg  Config
	kind *server.Kind // members' engine kind
	n    int64        // total item universe: sum of group ranges
	// ref is the first member's probe at construction: the engine
	// parameters every member must share (see verifyMember) — witness
	// universe M (0 where witnesses are unbounded), witness target, star
	// Rungs, window geometry.
	ref server.HealthResponse

	groups []*group
	mux    *http.ServeMux
	start  time.Time

	// bestBody and resultsBody cache the encoded merged published
	// answers, keyed on the member ETags they merge (published.go).
	bestBody, resultsBody server.BodySlot[string]

	// spare pool: reachable nodes not currently serving a range, adoptable
	// by the reconciler when a group loses a replica.
	spareMu sync.Mutex
	spares  []*replica

	// decision ring: the last decisionCap autonomous membership actions.
	decMu     sync.Mutex
	decisions []Decision

	// reconMu guards the reconciler pointer (GET /reconciler reads it).
	reconMu sync.Mutex
	recon   *Reconciler

	// rebalanceMu serialises rebalance operations gateway-wide: the
	// duplicate-target guard scans current membership, so two concurrent
	// moves of *different* ranges onto the same fresh node would both
	// pass it and the second restore would destroy the first range's
	// state.  Rebalances are rare admin operations; serialising them is
	// free.
	rebalanceMu sync.Mutex
}

// New builds a gateway over the configured members, probing each node's
// /healthz to discover its universe size and verify the cluster is
// coherent: the first member fixes the engine kind and parameters, a
// group's first replica fixes its range size, and every member must then
// pass verifyMember — the check /healthz, the reconciler and rebalance
// apply later.  Group j's range is [sum of earlier group sizes, + its own
// size).  A member that is down or draining fails construction — callers
// that want to wait for a bootstrapping cluster retry New (see
// cmd/fewwgate -wait).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: no members configured")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.MemberTimeout == 0 {
		cfg.MemberTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.ChunkUpdates <= 0 {
		cfg.ChunkUpdates = 8192
	}
	nGroups := len(cfg.Members) / cfg.Replicas
	if nGroups == 0 {
		return nil, fmt.Errorf("cluster: %d members cannot hold %d replicas of even one range", len(cfg.Members), cfg.Replicas)
	}
	g := &Gateway{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	for idx, url := range cfg.Members {
		cl := g.newClient(url)
		h, err := cl.Health()
		if err == nil && !h.Serving {
			err = errors.New("draining")
		}
		j, k := idx/cfg.Replicas, idx%cfg.Replicas
		if j >= nGroups {
			// Leftover members are spares.  They must be reachable and
			// serving — whatever engine they hold is a placeholder the
			// first re-seed replaces wholesale through POST /restore.
			if err != nil {
				return nil, fmt.Errorf("cluster: spare %s: %w", url, err)
			}
			g.spares = append(g.spares, &replica{cl: cl})
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: member %d (%s): %w", idx, url, err)
		}
		if idx == 0 {
			if g.kind, err = server.KindNamed(h.Engine); err != nil {
				return nil, fmt.Errorf("cluster: member 0 (%s): %w", url, err)
			}
			g.ref = h
		}
		if k == 0 {
			g.groups = append(g.groups, &group{idx: j, rng: Range{Lo: g.n, Hi: g.n + h.N}})
			g.n += h.N
		}
		gr := g.groups[j]
		if err := g.verifyMember(h, gr.rng); err != nil {
			return nil, fmt.Errorf("cluster: member %d (%s), replica %d of range %d, is incoherent: %w", idx, url, k, j, err)
		}
		gr.replicas = append(gr.replicas, &replica{cl: cl})
	}
	// A star cluster's ranges are slices of the vertex set whose total
	// must be exactly the graph the members' ladders (and witness
	// universes) were sized for — anything else silently mis-scopes the
	// double cover.
	if g.kind == server.Star && g.n != g.ref.M {
		return nil, fmt.Errorf("cluster: star member ranges cover %d vertices, engines are sized for a %d-vertex graph", g.n, g.ref.M)
	}
	g.mux.HandleFunc("POST /ingest", g.handleIngest)
	g.mux.HandleFunc("GET /best", g.handleBest)
	g.mux.HandleFunc("GET /results", g.handleResults)
	g.mux.HandleFunc("GET /stats", g.handleStats)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /reconciler", g.handleReconciler)
	g.mux.HandleFunc("POST /checkpoint", g.handleCheckpoint)
	g.mux.HandleFunc("POST /rebalance", g.handleRebalance)
	g.mux.HandleFunc("GET /{$}", g.handleIndex)
	return g, nil
}

func (g *Gateway) newClient(url string) *server.Client {
	timeout := g.cfg.MemberTimeout
	if timeout < 0 {
		timeout = 0
	}
	return &server.Client{Base: url, Timeout: timeout}
}

// Handler returns the HTTP handler serving every gateway endpoint.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Universe returns the total item universe [0, n) and the witness
// universe m (0 where witnesses are unbounded: insert-only and window
// clusters).
func (g *Gateway) Universe() (n, m int64) { return g.n, g.ref.M }

// Kind returns the members' engine kind.
func (g *Gateway) Kind() string { return g.kind.Name }

// Replicas returns the configured copies per range.
func (g *Gateway) Replicas() int { return g.cfg.Replicas }

// Ranges returns the static range partition in group order.
func (g *Gateway) Ranges() []Range {
	out := make([]Range, len(g.groups))
	for i, gr := range g.groups {
		out[i] = gr.rng
	}
	return out
}

// groupFor returns the index of the group whose range holds global item
// a.  Ranges are contiguous and ascending, so this is a binary search
// over the lower bounds.
func (g *Gateway) groupFor(a int64) int {
	lo, hi := 0, len(g.groups)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.groups[mid].rng.Lo <= a {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// scatter runs fn(0), ..., fn(n-1) concurrently and returns once every
// call has.
func scatter(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// scatterGroups runs fn against every group concurrently and returns the
// per-group errors.
func (g *Gateway) scatterGroups(fn func(j int, gr *group) error) []error {
	errs := make([]error, len(g.groups))
	scatter(len(g.groups), func(j int) { errs[j] = fn(j, g.groups[j]) })
	return errs
}

// memberSlot is one node of the current membership: a replica of a
// group, or a spare (gr nil).
type memberSlot struct {
	gr      *group
	rep     *replica
	primary bool
}

// members lists the current membership in group order, each group's
// replicas in replica order, followed by the spares when withSpares is
// set.  Callers probe the slots concurrently with scatter.
func (g *Gateway) members(withSpares bool) []memberSlot {
	var slots []memberSlot
	for _, gr := range g.groups {
		reps, prim := gr.snapshot()
		for _, rep := range reps {
			slots = append(slots, memberSlot{gr: gr, rep: rep, primary: rep == prim})
		}
	}
	if withSpares {
		for _, rep := range g.spareList() {
			slots = append(slots, memberSlot{rep: rep})
		}
	}
	return slots
}

// info describes the slot in the /stats and /healthz payloads.
func (s memberSlot) info() MemberInfo {
	mi := MemberInfo{URL: s.rep.client().Base, Group: -1, Role: "spare", State: stateName(s.rep.state.Load())}
	if s.gr != nil {
		mi.Range, mi.Group, mi.Role = s.gr.rng, s.gr.idx, "replica"
		if s.primary {
			mi.Role = "primary"
		}
	}
	return mi
}

// groupRead serves one group's slice of a read.  A published read tries
// the replicas in rotation order until one answers — a dead or stalled
// replica costs the caller one member timeout, not the response — while
// ?fresh=1 pins to the primary and does not fail over: fresh answers are
// the byte-identity contract, and only the primary is guaranteed to have
// every accepted window at the moment of the call.
func (g *Gateway) groupRead(gr *group, fresh bool, fn func(cl *server.Client) error) error {
	if fresh {
		return fn(gr.primaryReplica().client())
	}
	var firstErr error
	for _, rep := range gr.readOrder() {
		if err := fn(rep.client()); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return nil
	}
	return firstErr
}

// firstError joins per-group errors into one message naming the ranges
// at fault (by the URL of each group's current primary), or returns nil.
func (g *Gateway) firstError(errs []error) error {
	var msgs []string
	for j, err := range errs {
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("range %d (%s): %v", j, g.groupURL(j), err))
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return errors.New(strings.Join(msgs, "; "))
}

// wantAtomic reports the ?atomic=1 opt-in to the whole-request reject
// boundary (see handleIngest).
func wantAtomic(r *http.Request) bool {
	atomic, err := strconv.ParseBool(r.URL.Query().Get("atomic"))
	return err == nil && atomic
}

// handleIngest accepts a FEWW binary stream over the full universe and
// splits it by range (items remapped to range-local ids, order
// preserved), fanning each range's share out to every live replica of
// the owning group.
//
// Both ingest modes run one pipeline.  The gateway decodes and
// validates every update, splits it by range, and forwards each
// replica's share as FEWW frames into a streaming /ingest request open
// on that replica (openIngest, flush, finish).  Every live replica of a
// group receives the same frames in the same order, so replicas that saw
// every frame hold byte-identical engine state (a frame is the epoch
// delta of the paper's one-way protocol).  A replica whose stream dies
// mid-request is marked failed and dropped from the fan-out — the
// request continues on the survivors and still succeeds, which is what
// lets a loader stream through a node kill without retrying (and
// therefore without the double-apply a retry could cause).  Only when a
// group loses *all* its replicas does the request fail (HTTP 502), with
// Accepted reporting what the members applied.
//
// The modes differ only in where a rejected update stops the request.
// By default the member streams open before the body is read and every
// Config.ChunkUpdates updates go out as one window: decode of window k+1
// overlaps the members applying window k, and gateway memory stays one
// window regardless of body size.  The engine's all-or-nothing contract
// then holds per window: nothing from a window containing a malformed or
// out-of-universe update is forwarded (HTTP 400), but earlier windows
// were already applied, and the response's Accepted count says how
// much.  ?atomic=1 moves the boundary to the whole request: the streams
// open only after the entire body has decoded and validated, so a
// rejected request reaches no member.  It costs the decoded buffer
// (roughly 3-4x the encoded size) and a serial decode-then-send.  A body
// over Config.MaxBodyBytes is rejected at the same boundaries, with HTTP
// 413.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc, err := stream.NewScanner(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		server.WriteJSON(w, rejectCode(err), server.IngestResponse{Error: err.Error()})
		return
	}
	headerM := g.ref.M
	if headerM == 0 {
		headerM = sc.M()
	}
	atomic := wantAtomic(r)
	var fan *ingestFanout
	if !atomic {
		fan = g.openIngest(headerM)
	}

	per := make([][]feww.Update, len(g.groups))
	var (
		badReq  error // malformed, invalid or over-cap stream: HTTP 400 or 413
		sendErr error // a whole group died mid-forward: HTTP 502
	)
	for i := 0; sc.Scan(); i++ {
		u := sc.Update()
		// The window (or, atomically, the request) holding an invalid
		// update is dropped whole: nothing at or past it is forwarded.
		if badReq = g.checkUpdate(i, u); badReq != nil {
			break
		}
		j := g.groupFor(u.A)
		u.A -= g.groups[j].rng.Lo
		per[j] = append(per[j], u)
		if !atomic && (i+1)%g.cfg.ChunkUpdates == 0 {
			if sendErr = fan.flush(per); sendErr != nil {
				break
			}
		}
	}
	if badReq == nil {
		badReq = sc.Err()
	}
	if atomic {
		if badReq != nil {
			server.WriteJSON(w, rejectCode(badReq), server.IngestResponse{Error: badReq.Error()})
			return
		}
		fan = g.openIngest(headerM)
	}
	if badReq == nil && sendErr == nil {
		sendErr = fan.flush(per)
	}

	out, gatherErr := fan.finish()
	code := http.StatusOK
	switch {
	case badReq != nil:
		code, out.Error = rejectCode(badReq), badReq.Error()
	case gatherErr != nil:
		// The replicas' own response errors name the root cause when they
		// exist; the pipe-write error is the fallback.
		code, out.Error = http.StatusBadGateway, gatherErr.Error()
	case sendErr != nil:
		code, out.Error = http.StatusBadGateway, sendErr.Error()
	}
	server.WriteJSON(w, code, out)
}

// rejectCode is the status of an ingest body the gateway refused: 413
// when it outgrew Config.MaxBodyBytes, 400 when it was malformed or
// invalid.
func rejectCode(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// replicaStream is the gateway side of one replica's in-flight streaming
// ingest: the pipe feeding the replica's request body, the frame writer
// encoding windows into it, and the replica's eventual response.
type replicaStream struct {
	rep    *replica
	pw     *io.PipeWriter
	fw     *stream.FrameWriter
	frames int
	broken bool // a frame write failed; the replica was marked failed
	resp   server.IngestResponse
	err    error
	done   chan struct{}
}

// groupIngest is one group's fan-out of an ingest request.
type groupIngest struct {
	gr      *group
	streams []*replicaStream
}

// exhausted reports whether every replica stream of the group is broken.
func (gi *groupIngest) exhausted() bool {
	for _, rs := range gi.streams {
		if !rs.broken {
			return false
		}
	}
	return true
}

// failStream marks a replica stream broken after a write error, marks
// the replica failed (its state is now missing a frame — only a re-seed
// may bring it back), and records the decision once.
func (g *Gateway) failStream(gi *groupIngest, rs *replicaStream, err error) {
	rs.broken = true
	rs.pw.CloseWithError(err)
	if rs.rep.markFailed() {
		g.recordDecision("fail", gi.gr, rs.rep.client().Base, "ingest stream: "+err.Error())
	}
}

// ingestFanout is one ingest request's open replica streams, a
// groupIngest per group in range order.
type ingestFanout struct {
	g      *Gateway
	m      int64 // the witness universe every forwarded frame declares
	groups []*groupIngest
}

// openIngest opens one streaming /ingest request per ingest target of
// every group.  The group's shared ingest lock is taken *before* target
// selection and held (one reader hold per group, released in finish once
// the group's responses are gathered) across the whole request: a
// rebalance or reconciler re-seed takes the lock exclusively, so it
// either completes before the targets are chosen or waits until every
// stream has landed — never in between, where it could seed a failed
// replica from the primary's pre-request state and mark it live while
// this request's frames bypass it, silently diverging the copies.  A
// pipe write blocks until the replica's transport consumes it, so a slow
// replica back-pressures the whole forward loop instead of growing a
// gateway-side buffer; a dead replica closes its read end, failing the
// next write immediately.
func (g *Gateway) openIngest(m int64) *ingestFanout {
	f := &ingestFanout{g: g, m: m, groups: make([]*groupIngest, len(g.groups))}
	for j, gr := range g.groups {
		gr.ingestMu.RLock()
		targets := gr.ingestTargets()
		gi := &groupIngest{gr: gr, streams: make([]*replicaStream, len(targets))}
		f.groups[j] = gi
		for k, rep := range targets {
			pr, pw := io.Pipe()
			rs := &replicaStream{rep: rep, pw: pw, fw: stream.NewFrameWriter(pw), done: make(chan struct{})}
			gi.streams[k] = rs
			go func() {
				defer close(rs.done)
				rs.resp, rs.err = rep.client().IngestStream(pr)
				pr.CloseWithError(rs.err)
			}()
		}
	}
	return f
}

// flush forwards each group's pending share as one frame to every
// replica stream still standing, and empties the shares.  A group that
// has lost every stream fails the request, but only after the other
// groups have received their share of the window: groups apply
// independently, so the request's Accepted stays what the members
// applied.  flush reports the first exhausted group.
func (f *ingestFanout) flush(per [][]feww.Update) error {
	var err error
	for j, ups := range per {
		if len(ups) == 0 {
			continue
		}
		gi := f.groups[j]
		for _, rs := range gi.streams {
			if rs.broken {
				continue
			}
			if werr := rs.fw.WriteFrame(gi.gr.rng.Len(), f.m, ups); werr != nil {
				f.g.failStream(gi, rs, werr)
			} else {
				rs.frames++
			}
		}
		per[j] = ups[:0]
		if err == nil && gi.exhausted() {
			err = fmt.Errorf("range %d (%s): every replica failed mid-stream", j, gi.gr.rng)
		}
	}
	return err
}

// finish closes every replica stream — first writing one empty frame to
// any replica that never received data, so its body decodes and a dead
// replica surfaces even when no traffic reached its range — then gathers
// the responses, releasing each group's ingest lock once its last stream
// has landed.  Replicas of a group that answered received identical
// frames, so their accepted counts agree; the group's contribution is
// the max over its replicas (never the sum, which would count
// replication as throughput).  A replica whose request errored is marked
// failed; the group only fails the request when every replica errored.
func (f *ingestFanout) finish() (server.IngestResponse, error) {
	for _, gi := range f.groups {
		for _, rs := range gi.streams {
			if !rs.broken && rs.frames == 0 {
				_ = rs.fw.WriteFrame(gi.gr.rng.Len(), f.m, nil)
			}
			rs.pw.Close()
		}
	}
	var out server.IngestResponse
	groupErrs := make([]error, len(f.groups))
	for j, gi := range f.groups {
		var accepted, total int64
		var errs []string
		ok := false
		for _, rs := range gi.streams {
			<-rs.done
			if rs.err != nil {
				if rs.rep.markFailed() {
					f.g.recordDecision("fail", gi.gr, rs.rep.client().Base, "ingest response: "+rs.err.Error())
				}
				errs = append(errs, fmt.Sprintf("%s: %v", rs.rep.client().Base, rs.err))
			} else {
				ok = true
			}
			accepted = max(accepted, rs.resp.Accepted)
			total = max(total, rs.resp.Total)
		}
		gi.gr.ingestMu.RUnlock()
		out.Accepted += accepted
		out.Total += total
		if !ok {
			groupErrs[j] = errors.New(strings.Join(errs, "; "))
		}
	}
	return out, f.g.firstError(groupErrs)
}

// checkUpdate validates one decoded update against the cluster universe
// and engine kind, mirroring the engine's own boundary checks so nothing
// invalid is ever forwarded.  m is 0 for exactly the kinds whose
// witnesses are unbounded.
func (g *Gateway) checkUpdate(i int, u feww.Update) error {
	if u.A < 0 || u.A >= g.n {
		return fmt.Errorf("%w: update %d: item %d not in [0, %d)", feww.ErrOutOfUniverse, i, u.A, g.n)
	}
	if u.B < 0 {
		return fmt.Errorf("%w: update %d: witness %d is negative", feww.ErrOutOfUniverse, i, u.B)
	}
	if u.Op != feww.Insert && !g.kind.Deletions {
		return fmt.Errorf("update %d: %w", i, g.kind.DeletionError(u))
	}
	if g.ref.M > 0 && u.B >= g.ref.M {
		return fmt.Errorf("%w: update %d: witness %d not in [0, %d)", feww.ErrOutOfUniverse, i, u.B, g.ref.M)
	}
	return nil
}

// checkAnswerRung rejects a member answer whose star rung annotation
// contradicts the cluster's engine kind — the query-path half of the
// kind-swap guard.  /healthz catches a member whose engine was replaced
// by a foreign-kind snapshot, but only when polled; without this check a
// star answer arriving in a flat cluster would *dominate* the merge
// (rung priority) and a flat answer in a star cluster would corrupt the
// rung filter, silently, on every query until someone looks at healthz.
// Flat-kind swaps (insert-only vs turnstile) produce indistinguishable
// answer shapes and merge under the same rules; those remain
// healthz/stats territory.
func (g *Gateway) checkAnswerRung(rung int) error {
	if g.ref.Rungs == 0 && rung >= 0 {
		return errors.New("rung-annotated answer from a member of a non-star cluster: engine kind mismatch (check GET /healthz)")
	}
	if g.ref.Rungs > 0 && rung < 0 {
		return errors.New("answer without a star rung in a star cluster: engine kind mismatch (check GET /healthz)")
	}
	return nil
}

func (g *Gateway) handleBest(w http.ResponseWriter, r *http.Request) {
	bests, tags, err := scatterRead(g, server.WantFresh(r), func(gr *group) *answerSlot[server.BestResponse] { return &gr.best },
		(*server.Client).BestIfNoneMatch, (*server.Client).BestFresh,
		func(b server.BestResponse) (int, bool) { return respRung(b), b.Found }, remapBest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	serveMerged(w, r, &g.bestBody, tags, func() any { return mergeBest(g.ref.WitnessTarget, bests) })
}

func (g *Gateway) handleResults(w http.ResponseWriter, r *http.Request) {
	lists, tags, err := scatterRead(g, server.WantFresh(r), func(gr *group) *answerSlot[[]server.NeighbourhoodJSON] { return &gr.results },
		(*server.Client).ResultsIfNoneMatch, (*server.Client).ResultsFresh,
		func(nbs []server.NeighbourhoodJSON) (int, bool) { return listRung(nbs), len(nbs) > 0 }, remapResults)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	serveMerged(w, r, &g.resultsBody, tags, func() any { return mergeResults(lists) })
}

// MemberInfo identifies one node in the cluster /stats and /healthz
// payloads.
type MemberInfo struct {
	URL   string `json:"url"`
	Range Range  `json:"range"`
	// Group is the replica group serving the range (-1 for spares), Role
	// "primary", "replica" or "spare", State the gateway's live/failed
	// judgement of the replica.
	Group int    `json:"group"`
	Role  string `json:"role"`
	State string `json:"state"`
}

// MemberStats is one replica's slice of the cluster /stats payload.
type MemberStats struct {
	MemberInfo
	Error string                `json:"error,omitempty"`
	Stats *server.StatsResponse `json:"stats,omitempty"`
}

// StatsResponse is the cluster /stats payload: the primaries' numbers
// summed (the same merge the engine applies across shards — replicas are
// copies, so summing them would double-count) plus the per-replica
// breakdown.  The summed field names match the node payload, so a client
// that understands fewwd /stats can read the aggregate.
type StatsResponse struct {
	Service       string        `json:"service"`
	Engine        string        `json:"engine"`
	Consistency   string        `json:"consistency"`
	Members       int           `json:"members"`
	Groups        int           `json:"groups"`
	Replicas      int           `json:"replicas"`
	Degraded      bool          `json:"degraded"`
	N             int64         `json:"n"`
	M             int64         `json:"m,omitempty"`
	WitnessTarget int64         `json:"witness_target"`
	Shards        int           `json:"shards"`
	Elements      int64         `json:"elements"`
	SpaceWords    int           `json:"space_words"`
	SnapshotBytes int           `json:"snapshot_bytes"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	PerMember     []MemberStats `json:"per_member"`
	Spares        []MemberStats `json:"spares,omitempty"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	fresh := server.WantFresh(r)
	consistency := "published"
	if fresh {
		consistency = "fresh"
	}
	// Fan the stats fetches out over every group replica at once.
	slots := g.members(false)
	stats := make([]server.StatsResponse, len(slots))
	errs := make([]error, len(slots))
	scatter(len(slots), func(i int) {
		if cl := slots[i].rep.client(); fresh {
			stats[i], errs[i] = cl.StatsFresh()
		} else {
			stats[i], errs[i] = cl.Stats()
		}
	})

	out := StatsResponse{
		Service:       "fewwgate",
		Engine:        g.kind.Name,
		Consistency:   consistency,
		Members:       len(slots),
		Groups:        len(g.groups),
		Replicas:      g.cfg.Replicas,
		N:             g.n,
		M:             g.ref.M,
		WitnessTarget: g.ref.WitnessTarget,
		UptimeSeconds: time.Since(g.start).Seconds(),
		PerMember:     make([]MemberStats, len(slots)),
	}
	for i, s := range slots {
		ms := MemberStats{MemberInfo: s.info()}
		if errs[i] != nil {
			ms.Error = errs[i].Error()
			out.Degraded = true
		} else if st := stats[i]; st.Engine != g.kind.Name {
			// A replica serving another engine kind (a foreign /restore
			// slipped in) must surface as degraded here too, not only on
			// the next /healthz poll — its numbers would corrupt the sums.
			ms.Error = fmt.Sprintf("engine kind %q, cluster is %q", st.Engine, g.kind.Name)
			ms.Stats = &st
			out.Degraded = true
		} else {
			ms.Stats = &st
			if s.primary {
				out.Shards += st.Shards
				out.Elements += st.Elements
				out.SpaceWords += st.SpaceWords
				out.SnapshotBytes += st.SnapshotBytes
			}
		}
		out.PerMember[i] = ms
	}
	for _, rep := range g.spareList() {
		// Spares hold placeholder engines; they are listed, not verified,
		// and never count toward the sums or degrade the cluster.
		out.Spares = append(out.Spares, MemberStats{MemberInfo: memberSlot{rep: rep}.info()})
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// MemberHealth is one replica's slice of the cluster /healthz payload.
// Ready means the replica answered the probe, is serving, and its engine
// matches the range and cluster parameters it is supposed to hold; State
// is the gateway's independent live/failed judgement (a stale replica
// awaiting re-seed probes Ready but is failed).
type MemberHealth struct {
	MemberInfo
	Ready  bool                   `json:"ready"`
	Error  string                 `json:"error,omitempty"`
	Health *server.HealthResponse `json:"health,omitempty"`
}

// HealthzResponse is the cluster /healthz payload.  The top-level field
// names mirror the node payload (service, engine, serving, n, m,
// witness_target, shards), so server.Client.Health reads a gateway
// exactly as it reads a node — the cluster presents as one big fewwd.
// Serving requires every group's *primary* to be ready: with replication
// a dead follower degrades redundancy (visible per member below) without
// taking the cluster out of service.
type HealthzResponse struct {
	Service       string `json:"service"`
	Engine        string `json:"engine"`
	Serving       bool   `json:"serving"`
	N             int64  `json:"n"`
	M             int64  `json:"m,omitempty"`
	WitnessTarget int64  `json:"witness_target"`
	Shards        int    `json:"shards"`
	Elements      int64  `json:"elements"`
	Groups        int    `json:"groups"`
	Replicas      int    `json:"replicas"`
	// Window and WindowBuckets (window clusters only) report the *global*
	// window the cluster serves: each member slides its own window over
	// its range's share of the stream, so under range-balanced traffic
	// the cluster covers groups x member-window updates.  The field names
	// match the node payload, so a client reads a gateway exactly as it
	// reads one node.
	Window        int64          `json:"window,omitempty"`
	WindowBuckets int64          `json:"window_buckets,omitempty"`
	Members       []MemberHealth `json:"members"`
	Spares        []MemberHealth `json:"spares,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := HealthzResponse{
		Service:       "fewwgate",
		Engine:        g.kind.Name,
		Serving:       true,
		N:             g.n,
		M:             g.ref.M,
		WitnessTarget: g.ref.WitnessTarget,
		Groups:        len(g.groups),
		Replicas:      g.cfg.Replicas,
	}
	if g.ref.Window > 0 {
		out.Window = g.ref.Window * int64(len(g.groups))
		out.WindowBuckets = g.ref.WindowBuckets
	}
	// Spares join the same concurrent probe fan-out as the group members:
	// one dead spare then costs the response a single member timeout in
	// parallel with everything else, instead of stalling /healthz for a
	// full timeout per spare after the members have answered.
	slots := g.members(true)
	healths := make([]server.HealthResponse, len(slots))
	errs := make([]error, len(slots))
	scatter(len(slots), func(i int) { healths[i], errs[i] = slots[i].rep.client().Health() })
	for i, s := range slots {
		mh := MemberHealth{MemberInfo: s.info()}
		if s.gr == nil {
			if errs[i] != nil {
				mh.Error = errs[i].Error()
			} else {
				mh.Health, mh.Ready = &healths[i], healths[i].Serving
			}
			out.Spares = append(out.Spares, mh)
			continue
		}
		if errs[i] != nil {
			mh.Error = errs[i].Error()
		} else {
			h := healths[i]
			mh.Health = &h
			if !h.Serving {
				mh.Error = "draining"
			} else if err := g.verifyMember(h, s.gr.rng); err != nil {
				mh.Error = err.Error()
			} else {
				mh.Ready = true
				if s.primary {
					out.Elements += h.Elements
					out.Shards += h.Shards
				}
			}
		}
		if s.primary && !mh.Ready {
			out.Serving = false
		}
		out.Members = append(out.Members, mh)
	}
	code := http.StatusOK
	if !out.Serving {
		code = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, out)
}

// verifyMember checks that a member's reported engine matches the range
// and cluster parameters it serves — the guard that catches an operator
// pointing a range at a node sized for a different one, and a member
// whose engine kind was swapped out from under the cluster (e.g. a
// POST /restore of another kind's snapshot): merging answers across
// kinds would silently produce garbage, so a mismatched member is
// reported not-ready instead.
func (g *Gateway) verifyMember(h server.HealthResponse, rng Range) error {
	if h.Engine != g.kind.Name {
		return fmt.Errorf("engine kind %q, cluster is %q", h.Engine, g.kind.Name)
	}
	if h.N != rng.Len() {
		return fmt.Errorf("engine universe %d does not cover range %s (%d items)", h.N, rng, rng.Len())
	}
	if h.M != g.ref.M {
		return fmt.Errorf("witness universe %d, cluster has %d", h.M, g.ref.M)
	}
	if h.WitnessTarget != g.ref.WitnessTarget {
		return fmt.Errorf("witness target %d, cluster has %d", h.WitnessTarget, g.ref.WitnessTarget)
	}
	if h.Rungs != g.ref.Rungs {
		return fmt.Errorf("star ladder has %d rungs, cluster has %d", h.Rungs, g.ref.Rungs)
	}
	// Each window member slides its own window over its share of the
	// stream, so the members compose one global window of groups x
	// window updates only when their geometries are identical.
	if h.Window != g.ref.Window || h.WindowBuckets != g.ref.WindowBuckets {
		return fmt.Errorf("window geometry %d/%d, cluster has %d/%d", h.Window, h.WindowBuckets, g.ref.Window, g.ref.WindowBuckets)
	}
	return nil
}

// groupURL returns the base URL of group j's current primary.
func (g *Gateway) groupURL(j int) string {
	return g.groups[j].primaryReplica().client().Base
}

// MemberCheckpoint is one replica's slice of the cluster /checkpoint
// payload.
type MemberCheckpoint struct {
	URL   string `json:"url"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// CheckpointResponse is the cluster /checkpoint payload.
type CheckpointResponse struct {
	Members    []MemberCheckpoint `json:"members"`
	TotalBytes int64              `json:"total_bytes"`
}

func (g *Gateway) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	// Checkpoints fan out to the live replicas only: a failed replica's
	// state is stale by definition, and checkpointing a dead node cannot
	// succeed — redundancy on disk comes from each live replica writing
	// its own file.
	var mu sync.Mutex
	var out CheckpointResponse
	errs := g.scatterGroups(func(j int, gr *group) error {
		// As on ingest, the shared ingest lock is taken before
		// target selection and held across the replica requests: a re-seed
		// (exclusive lock) could otherwise revive a replica between
		// selection and the request, and its mid-seed checkpoint would
		// capture partial state.
		gr.ingestMu.RLock()
		defer gr.ingestMu.RUnlock()
		targets := gr.ingestTargets()
		var msgs []string
		for _, rep := range targets {
			resp, err := rep.client().Checkpoint()
			if err != nil {
				msgs = append(msgs, fmt.Sprintf("%s: %v", rep.client().Base, err))
				continue
			}
			mu.Lock()
			out.Members = append(out.Members, MemberCheckpoint{URL: rep.client().Base, Path: resp.Path, Bytes: resp.Bytes})
			out.TotalBytes += resp.Bytes
			mu.Unlock()
		}
		if len(msgs) > 0 {
			return errors.New(strings.Join(msgs, "; "))
		}
		return nil
	})
	if err := g.firstError(errs); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// RebalanceRequest asks the gateway to move a range to a different node.
// Rebalance is the manual membership tool for *unreplicated* groups; a
// replicated group's membership is owned by the reconciler (promote,
// re-seed, spare adoption), and a rebalance against one is refused.
//
// Mode "ship" (the default) is the live path: the donor currently
// serving the range streams its snapshot — the complete engine state,
// the paper's one-way message — through the gateway into the target's
// POST /restore, and the range is repointed once the target confirms
// the restored state.  Ingest for the range pauses for the duration;
// queries keep answering from the donor until the repoint.
//
// Mode "adopt" repoints the range without shipping anything: the target
// must already hold a matching engine, e.g. a replacement node started
// with -restore from the dead donor's checkpoint file.  This is the node
// replacement path when there is no live donor to ship from.
type RebalanceRequest struct {
	Range  int    `json:"range"`          // index into the range partition
	Target string `json:"target"`         // base URL of the receiving node
	Mode   string `json:"mode,omitempty"` // "ship" (default) or "adopt"
}

// RebalanceResponse reports a completed rebalance.
type RebalanceResponse struct {
	Range         Range  `json:"range"`
	From          string `json:"from"`
	To            string `json:"to"`
	Mode          string `json:"mode"`
	SnapshotBytes int64  `json:"snapshot_bytes,omitempty"`
	Elements      int64  `json:"elements"`
}

func (g *Gateway) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req RebalanceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "rebalance: decoding request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Range < 0 || req.Range >= len(g.groups) {
		http.Error(w, fmt.Sprintf("rebalance: range %d not in [0, %d)", req.Range, len(g.groups)), http.StatusBadRequest)
		return
	}
	if req.Target == "" {
		http.Error(w, "rebalance: no target", http.StatusBadRequest)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "ship"
	}
	if mode != "ship" && mode != "adopt" {
		http.Error(w, fmt.Sprintf("rebalance: unknown mode %q (want ship or adopt)", req.Mode), http.StatusBadRequest)
		return
	}
	// One rebalance at a time, gateway-wide: the guard below reads the
	// current membership, which a concurrent rebalance could be changing.
	g.rebalanceMu.Lock()
	defer g.rebalanceMu.Unlock()

	gr := g.groups[req.Range]
	reps, _ := gr.snapshot()
	if len(reps) > 1 {
		http.Error(w, fmt.Sprintf("rebalance: range %d is served by %d replicas; replicated membership is reconciler-owned (see GET /reconciler)", req.Range, len(reps)), http.StatusConflict)
		return
	}
	rep := reps[0]

	// A target already serving a *different* range (or waiting as a
	// spare) must be refused: restoring into it would Close that node's
	// engine and destroy its state — and with equal-length ranges
	// verifyMember could not tell.  (Re-targeting the donor's own URL is
	// a harmless no-op repoint.)
	target := strings.TrimRight(req.Target, "/")
	for j, other := range g.groups {
		if j == req.Range {
			continue
		}
		others, _ := other.snapshot()
		for _, or := range others {
			if strings.TrimRight(or.client().Base, "/") == target {
				http.Error(w, fmt.Sprintf("rebalance: target %s already serves range %d (%s)", req.Target, j, other.rng), http.StatusConflict)
				return
			}
		}
	}
	for _, sp := range g.spareList() {
		if strings.TrimRight(sp.client().Base, "/") == target {
			http.Error(w, fmt.Sprintf("rebalance: target %s is a reconciler spare", req.Target), http.StatusConflict)
			return
		}
	}

	tcl := g.newClient(req.Target)

	// The exclusive ingest lock pauses writes for this range: no update
	// can land on the donor after the snapshot is cut, so the shipped
	// state is exactly the range's accepted stream.  Queries are not
	// blocked — they keep answering from the donor until the repoint.
	gr.ingestMu.Lock()
	defer gr.ingestMu.Unlock()

	donor := rep.client()
	out := RebalanceResponse{Range: gr.rng, From: donor.Base, To: req.Target, Mode: mode}
	var health server.HealthResponse
	switch mode {
	case "ship":
		// The snapshot is buffered in gateway memory rather than piped: a
		// replayable body is what lets the restore survive a refused
		// connection, and the size is bounded by the donor's body cap.
		// Rebalance is a rare admin operation; the transient buffer is the
		// simpler trade (ShipSnapshot makes the same one for re-seeds).
		var err error
		var size int64
		if health, size, err = donor.ShipSnapshot(tcl); err != nil {
			http.Error(w, fmt.Sprintf("rebalance: %v", err), http.StatusBadGateway)
			return
		}
		out.SnapshotBytes = size
	case "adopt":
		var err error
		if health, err = tcl.Health(); err != nil {
			http.Error(w, fmt.Sprintf("rebalance: target health: %v", err), http.StatusBadGateway)
			return
		}
		if !health.Serving {
			http.Error(w, "rebalance: target is draining", http.StatusBadGateway)
			return
		}
	}
	if err := g.verifyMember(health, gr.rng); err != nil {
		http.Error(w, fmt.Sprintf("rebalance: target %s does not match range %s: %v", req.Target, gr.rng, err), http.StatusConflict)
		return
	}
	out.Elements = health.Elements
	rep.setClient(tcl)
	rep.markLive()
	server.WriteJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleIndex(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{
		"service":          "fewwgate",
		"engine":           g.kind.Name,
		"POST /ingest":     "FEWW binary stream body, split across ranges and fanned to every live replica (a rejected window stops the stream; ?atomic=1 validates the whole body before any member sees it)",
		"GET /best":        "max-merged best neighbourhood (?fresh=1 for barrier consistency, pinned to primaries)",
		"GET /results":     "concatenated full-target neighbourhoods (?fresh=1 for barrier consistency, pinned to primaries)",
		"GET /stats":       "summed cluster stats with per-replica breakdown",
		"GET /healthz":     "cluster readiness: every range's primary serving",
		"GET /reconciler":  "replica states, spare pool, and the autonomous failover decision log",
		"POST /checkpoint": "fan out a checkpoint to every live replica",
		"POST /rebalance":  `{"range": i, "target": url, "mode": "ship"|"adopt"} — move an unreplicated range`,
	})
}
