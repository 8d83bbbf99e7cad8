package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"feww/server"
)

// ReconcilerConfig tunes the autonomous failover loop.
type ReconcilerConfig struct {
	// Interval between reconcile ticks (default 1s).
	Interval time.Duration
	// FailAfter is how many consecutive probe failures mark a replica
	// failed (default 3).  One means a single missed probe fails the
	// replica — fast failover, but a GC pause or dropped packet triggers
	// a needless re-seed.
	FailAfter int
	// ProbeTimeout bounds each health probe (default 2s).  Probes use
	// their own short deadline instead of the member timeout so a stalled
	// node is detected in seconds, not after a 30s request timeout.
	ProbeTimeout time.Duration
}

// Reconciler is the gateway's autonomous failover loop.  Each tick it
// probes every replica and spare, and per group:
//
//  1. marks replicas failed after FailAfter consecutive probe failures
//     (an ingest-stream write error marks them failed immediately,
//     without the reconciler — see Gateway.handleIngest);
//  2. if the primary is failed, promotes the live probe-healthy replica
//     holding the most elements — replicas are fanned-out copies, so the
//     element count only differs by windows a failed stream missed;
//  3. if no replica is live at all, promotes a probe-healthy failed
//     replica anyway ("promote-degraded"): a node resurrected from its
//     checkpoint is better than refusing writes forever, but windows
//     accepted after its checkpoint are lost, so the decision is logged
//     as lossy;
//  4. re-seeds failed-but-reachable replicas from the primary: the
//     primary's snapshot (the paper's state-as-message object) is shipped
//     into the replica under the group's exclusive ingest lock, so the
//     seed is an exact prefix of the accepted stream and the replica
//     rejoins the fan-out before the next window;
//  5. while the group is below strength, adopts a probe-healthy spare by
//     the same re-seed, and retires dead unreachable replicas back to the
//     spare pool once the group is whole again.
//
// Every action is recorded in the gateway's decision log (GET
// /reconciler) with a timestamp and cause, so a failover can be audited
// after the fact.
type Reconciler struct {
	g        *Gateway
	cfg      ReconcilerConfig
	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}
}

// StartReconciler starts the failover loop and returns it.  If one is
// already running it is returned unchanged.
func (g *Gateway) StartReconciler(cfg ReconcilerConfig) *Reconciler {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	g.reconMu.Lock()
	defer g.reconMu.Unlock()
	if g.recon != nil {
		return g.recon
	}
	r := &Reconciler{g: g, cfg: cfg, stopc: make(chan struct{}), donec: make(chan struct{})}
	g.recon = r
	go r.run()
	return r
}

// Stop halts the loop and waits for the in-flight tick to finish.  It
// is idempotent: repeated or concurrent Stops all wait for the same
// shutdown.
func (r *Reconciler) Stop() {
	r.stopOnce.Do(func() { close(r.stopc) })
	<-r.donec
	r.g.reconMu.Lock()
	if r.g.recon == r {
		r.g.recon = nil
	}
	r.g.reconMu.Unlock()
}

func (r *Reconciler) run() {
	defer close(r.donec)
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-ticker.C:
			r.tick()
		}
	}
}

// probeResult is one replica's health probe outcome for a tick.
type probeResult struct {
	ok  bool
	h   server.HealthResponse
	err error
}

// probe checks one node with the reconciler's own short deadline.  A
// fresh client per probe keeps the member client's longer timeout (and
// its in-flight requests) out of the detection path.
func (r *Reconciler) probe(base string) (server.HealthResponse, error) {
	cl := &server.Client{Base: base, Timeout: r.cfg.ProbeTimeout}
	h, err := cl.Health()
	if err != nil {
		return h, err
	}
	if !h.Serving {
		return h, fmt.Errorf("draining")
	}
	return h, nil
}

func (r *Reconciler) tick() {
	g := r.g

	// Probe everything concurrently first; decisions are taken
	// sequentially against the settled results.
	slots := g.members(true)
	results := make([]probeResult, len(slots))
	scatter(len(slots), func(i int) {
		s := slots[i]
		h, err := r.probe(s.rep.client().Base)
		if err == nil && s.gr != nil {
			err = g.verifyMember(h, s.gr.rng)
		}
		results[i] = probeResult{ok: err == nil, h: h, err: err}
	})
	probes := make(map[*replica]probeResult, len(slots))
	for i, s := range slots {
		probes[s.rep] = results[i]
	}

	for _, gr := range g.groups {
		reps, _ := gr.snapshot()

		// 1. Probe bookkeeping: FailAfter consecutive failures fail the
		// replica.  (fails is reconciler-owned; ingest-path failures skip
		// it and CAS the state directly.)
		for _, rep := range reps {
			pr := probes[rep]
			if pr.ok {
				rep.fails = 0
				continue
			}
			rep.fails++
			if rep.fails >= r.cfg.FailAfter && rep.markFailed() {
				g.recordDecision("fail", gr, rep.client().Base,
					fmt.Sprintf("%d consecutive probe failures, last: %v", rep.fails, pr.err))
			}
		}

		// 2. Dead primary: promote the best live replica — max element
		// count, because a replica that missed windows (failed then
		// re-seeded mid-request) can only be behind, never ahead.
		prim := gr.primaryReplica()
		if !prim.live() {
			var best *replica
			var bestElems int64 = -1
			for _, rep := range reps {
				pr := probes[rep]
				if rep.live() && pr.ok && pr.h.Elements > bestElems {
					best, bestElems = rep, pr.h.Elements
				}
			}
			if best != nil {
				if gr.promote(best) {
					g.recordDecision("promote", gr, best.client().Base,
						fmt.Sprintf("primary %s failed; promoting replica with %d elements", prim.client().Base, bestElems))
					prim = best
				}
			} else {
				// 3. Nothing live: promote a reachable failed replica so the
				// range serves again — e.g. the dead node restarted from its
				// checkpoint.  Stale copies differ only by the windows each
				// missed, so the one holding the most elements loses the
				// least — the same rule as live promotion.  Anything past
				// that state is gone; say so in the log.
				var stale *replica
				var staleElems int64 = -1
				for _, rep := range reps {
					if pr := probes[rep]; pr.ok && pr.h.Elements > staleElems {
						stale, staleElems = rep, pr.h.Elements
					}
				}
				if stale != nil && gr.promote(stale) {
					stale.fails = 0
					stale.markLive()
					g.recordDecision("promote-degraded", gr, stale.client().Base,
						fmt.Sprintf("no live replica for range %s; promoting reachable stale replica with %d elements — windows since its last state are lost", gr.rng, staleElems))
					prim = stale
				}
			}
		}

		// 4. Re-seed failed-but-reachable replicas from a healthy live
		// primary.
		if prim.live() && probes[prim].ok {
			for _, rep := range reps {
				if rep == prim || rep.live() || !probes[rep].ok {
					continue
				}
				if size, err := r.reseed(gr, prim, rep, false); err != nil {
					g.recordDecision("reseed-failed", gr, rep.client().Base, err.Error())
				} else {
					g.recordDecision("reseed", gr, rep.client().Base,
						fmt.Sprintf("re-seeded from %s (%d snapshot bytes)", prim.client().Base, size))
				}
			}

			// 5. Below strength: adopt a probe-healthy spare.
			if gr.liveCount() < g.cfg.Replicas {
				for _, sp := range g.spareList() {
					if !probes[sp].ok || !g.takeSpare(sp) {
						continue
					}
					if size, err := r.reseed(gr, prim, sp, true); err != nil {
						g.addSpare(sp)
						g.recordDecision("adopt-failed", gr, sp.client().Base, err.Error())
					} else {
						g.recordDecision("adopt-spare", gr, sp.client().Base,
							fmt.Sprintf("seeded from %s (%d snapshot bytes)", prim.client().Base, size))
					}
					break
				}
			}
		}

		// Retire dead unreachable replicas once the group is back at
		// strength: their nodes may come back someday, and the spare pool
		// is where a returning node becomes adoptable capacity again.
		if gr.liveCount() >= g.cfg.Replicas {
			for _, rep := range reps {
				if rep.live() || probes[rep].ok {
					continue
				}
				if gr.remove(rep) {
					g.addSpare(rep)
					g.recordDecision("retire", gr, rep.client().Base, "failed and unreachable; retired to the spare pool")
				}
			}
		}
	}
}

// reseed ships the primary's snapshot into rep under the group's
// exclusive ingest lock: the lock waits out in-flight streaming requests
// (each holds it shared end to end), so the snapshot is an exact prefix
// of the accepted stream and — for adopt, where rep joins the group
// before the lock is released — no window can flow between the seed and
// the join.
func (r *Reconciler) reseed(gr *group, prim, rep *replica, adopt bool) (int64, error) {
	gr.ingestMu.Lock()
	defer gr.ingestMu.Unlock()
	h, size, err := prim.client().ShipSnapshot(rep.client())
	if err != nil {
		return 0, err
	}
	if err := r.g.verifyMember(h, gr.rng); err != nil {
		return 0, fmt.Errorf("restored state does not match range %s: %w", gr.rng, err)
	}
	if adopt {
		gr.add(rep)
	}
	rep.fails = 0
	rep.markLive()
	return size, nil
}

// ReplicaStatus is one replica's row in the /reconciler payload.
type ReplicaStatus struct {
	URL     string `json:"url"`
	Primary bool   `json:"primary"`
	State   string `json:"state"`
}

// GroupStatus is one replica group's row in the /reconciler payload.
type GroupStatus struct {
	Group    int             `json:"group"`
	Range    Range           `json:"range"`
	Primary  string          `json:"primary"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// ReconcilerStatus is the GET /reconciler payload: the loop's tunables,
// the live membership picture, the spare pool, and the retained decision
// log.
type ReconcilerStatus struct {
	Running             bool          `json:"running"`
	IntervalSeconds     float64       `json:"interval_seconds,omitempty"`
	FailAfter           int           `json:"fail_after,omitempty"`
	ProbeTimeoutSeconds float64       `json:"probe_timeout_seconds,omitempty"`
	Replicas            int           `json:"replicas"`
	Groups              []GroupStatus `json:"groups"`
	Spares              []string      `json:"spares"`
	Decisions           []Decision    `json:"decisions"`
}

// Status reports the reconciler view of the cluster.  It is meaningful
// (groups, states, ingest-failure decisions) even when no reconciler
// loop is running.
func (g *Gateway) Status() ReconcilerStatus {
	st := ReconcilerStatus{Replicas: g.cfg.Replicas, Spares: []string{}, Decisions: g.Decisions()}
	g.reconMu.Lock()
	if r := g.recon; r != nil {
		st.Running = true
		st.IntervalSeconds = r.cfg.Interval.Seconds()
		st.FailAfter = r.cfg.FailAfter
		st.ProbeTimeoutSeconds = r.cfg.ProbeTimeout.Seconds()
	}
	g.reconMu.Unlock()
	for _, gr := range g.groups {
		reps, prim := gr.snapshot()
		gs := GroupStatus{Group: gr.idx, Range: gr.rng, Primary: prim.client().Base}
		for _, rep := range reps {
			gs.Replicas = append(gs.Replicas, ReplicaStatus{
				URL: rep.client().Base, Primary: rep == prim, State: stateName(rep.state.Load()),
			})
		}
		st.Groups = append(st.Groups, gs)
	}
	for _, sp := range g.spareList() {
		st.Spares = append(st.Spares, sp.client().Base)
	}
	return st
}

func (g *Gateway) handleReconciler(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Status())
}
