package cluster

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"feww/server"
)

// Replica states.  A replica is live while the gateway trusts its state
// to be the range's full accepted stream; it is failed from the moment a
// write to it could not be confirmed (an ingest-frame write error, or
// FailAfter consecutive reconciler probe failures).  A failed replica's
// state may be arbitrarily stale, so it only returns to live through a
// re-seed: a fresh snapshot of the primary shipped into it under the
// group's exclusive ingest lock (see Reconciler).
const (
	replicaLive int32 = iota
	replicaFailed
)

func stateName(s int32) string {
	if s == replicaFailed {
		return "failed"
	}
	return "live"
}

// replica is one node holding a copy of a range: the client currently
// pointing at it plus the live/failed state machine above.
type replica struct {
	// clMu guards the client pointer, which rebalance swaps at repoint.
	clMu sync.RWMutex
	cl   *server.Client

	state atomic.Int32

	// fails counts consecutive reconciler probe failures.  It is owned by
	// the reconciler goroutine and must not be touched elsewhere.
	fails int
}

func (r *replica) client() *server.Client {
	r.clMu.RLock()
	defer r.clMu.RUnlock()
	return r.cl
}

func (r *replica) setClient(cl *server.Client) {
	r.clMu.Lock()
	defer r.clMu.Unlock()
	r.cl = cl
}

func (r *replica) live() bool { return r.state.Load() == replicaLive }

// markFailed transitions live -> failed, reporting whether this call did
// the transition (so the caller can record the decision exactly once).
func (r *replica) markFailed() bool { return r.state.CompareAndSwap(replicaLive, replicaFailed) }

// markLive returns the replica to service.  Callers must have re-seeded
// it first (or be knowingly promoting stale state, see the reconciler's
// degraded path): a failed replica may have missed ingest windows.
func (r *replica) markLive() { r.state.Store(replicaLive) }

// group is the replica set serving one range.  Every ingest window fans
// out to all live replicas synchronously — the window is the epoch delta
// of the paper's one-way protocol, so replicas that saw every window are
// byte-identical engines — while published reads rotate across them and
// ?fresh=1 pins to the primary.
type group struct {
	idx int
	rng Range

	// ingestMu serialises ingest for the range against state shipping:
	// an ingest request holds it shared from *before* target selection
	// (ingestTargets) until every replica request of the group has
	// landed, while rebalance and reconciler re-seeds hold it exclusively
	// — so a shipped snapshot is an exact prefix of the accepted stream,
	// a re-seeded replica joins before the next window can flow, and a
	// re-seed can never slip between a request choosing its targets and
	// the replicas seeing it (which would revive a replica that then
	// silently misses the in-flight windows).  Queries do not take it.
	ingestMu sync.RWMutex

	// mu guards the replica set and the primary index.
	mu       sync.RWMutex
	replicas []*replica
	primary  int

	rr atomic.Uint64 // published-read rotation cursor

	// best and results remember the group's last tagged published
	// answers, which published reads revalidate (published.go).
	best    answerSlot[server.BestResponse]
	results answerSlot[[]server.NeighbourhoodJSON]
}

// snapshot returns a copy of the replica set and the current primary.
func (gr *group) snapshot() (reps []*replica, primary *replica) {
	gr.mu.RLock()
	defer gr.mu.RUnlock()
	return append([]*replica(nil), gr.replicas...), gr.replicas[gr.primary]
}

func (gr *group) primaryReplica() *replica {
	gr.mu.RLock()
	defer gr.mu.RUnlock()
	return gr.replicas[gr.primary]
}

// promote makes rep the group's primary, reporting whether rep is still
// a member of the group.
func (gr *group) promote(rep *replica) bool {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	for i, r := range gr.replicas {
		if r == rep {
			gr.primary = i
			return true
		}
	}
	return false
}

// add appends a (re-seeded) replica to the group.  Callers adopting a
// spare do this while holding ingestMu exclusively, so no window can
// flow between the seed snapshot and the replica joining the fan-out.
func (gr *group) add(rep *replica) {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	gr.replicas = append(gr.replicas, rep)
}

// remove drops rep from the group.  It refuses to remove the primary or
// the last replica; reports whether the removal happened.
func (gr *group) remove(rep *replica) bool {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	if len(gr.replicas) <= 1 {
		return false
	}
	for i, r := range gr.replicas {
		if r != rep {
			continue
		}
		if i == gr.primary {
			return false
		}
		gr.replicas = append(gr.replicas[:i], gr.replicas[i+1:]...)
		if gr.primary > i {
			gr.primary--
		}
		return true
	}
	return false
}

// ingestTargets returns the replicas a write fans out to: every live
// replica or — when none is live — every replica, so the request fails
// with the members' real errors (and a resurrected node can keep
// absorbing traffic in the fully-degraded regime) rather than hitting an
// empty fan-out.
//
// Callers must hold ingestMu (shared) before selecting targets and keep
// it across the replica responses: a re-seed runs under the exclusive
// lock and can revive a replica between an unlocked selection and the
// request, silently missing in-flight windows.  fewwvet's lockorder
// analyzer enforces the acquire-before-select half at every call site.
//
//fewwvet:requires ingestMu
func (gr *group) ingestTargets() []*replica {
	reps, _ := gr.snapshot()
	live := make([]*replica, 0, len(reps))
	for _, r := range reps {
		if r.live() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return reps
	}
	return live
}

// readOrder returns the replicas a published read tries in order: the
// live replicas rotated by a per-group cursor — read load spreads across
// the replica set, which is the scale-out half of replication — then the
// failed ones as a last resort.
func (gr *group) readOrder() []*replica {
	reps, _ := gr.snapshot()
	var live, failed []*replica
	for _, r := range reps {
		if r.live() {
			live = append(live, r)
		} else {
			failed = append(failed, r)
		}
	}
	if len(live) > 1 {
		k := int(gr.rr.Add(1) % uint64(len(live)))
		live = append(live[k:], live[:k]...)
	}
	return append(live, failed...)
}

// liveCount returns how many of the group's replicas are live.
func (gr *group) liveCount() int {
	reps, _ := gr.snapshot()
	n := 0
	for _, r := range reps {
		if r.live() {
			n++
		}
	}
	return n
}

// Decision is one autonomous membership action the gateway took: a
// replica marked failed, a follower promoted to primary, a stale replica
// re-seeded, a spare adopted into a group, or an unreachable replica
// retired to the spare pool.  The last decisionCap decisions are served
// by GET /reconciler (and logged), so an operator can audit a failover
// after the fact without having been there.
type Decision struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"`
	Group  int       `json:"group"`
	Range  Range     `json:"range"`
	URL    string    `json:"url"`
	Detail string    `json:"detail,omitempty"`
}

const decisionCap = 256

func (g *Gateway) recordDecision(action string, gr *group, url, detail string) {
	d := Decision{Time: time.Now(), Action: action, Group: -1, URL: url, Detail: detail}
	if gr != nil {
		d.Group, d.Range = gr.idx, gr.rng
	}
	g.decMu.Lock()
	g.decisions = append(g.decisions, d)
	if len(g.decisions) > decisionCap {
		g.decisions = g.decisions[len(g.decisions)-decisionCap:]
	}
	g.decMu.Unlock()
	if gr != nil {
		log.Printf("fewwgate: decision %s: group %d %s %s: %s", action, d.Group, d.Range, url, detail)
	} else {
		log.Printf("fewwgate: decision %s: %s: %s", action, url, detail)
	}
}

// Decisions returns the retained decision log, oldest first.
func (g *Gateway) Decisions() []Decision {
	g.decMu.Lock()
	defer g.decMu.Unlock()
	return append([]Decision(nil), g.decisions...)
}

// spareList returns the current spare pool.
func (g *Gateway) spareList() []*replica {
	g.spareMu.Lock()
	defer g.spareMu.Unlock()
	return append([]*replica(nil), g.spares...)
}

// takeSpare removes rep from the spare pool, reporting whether it was
// still there (a concurrent taker may have won).
func (g *Gateway) takeSpare(rep *replica) bool {
	g.spareMu.Lock()
	defer g.spareMu.Unlock()
	for i, s := range g.spares {
		if s == rep {
			g.spares = append(g.spares[:i], g.spares[i+1:]...)
			return true
		}
	}
	return false
}

// addSpare returns a replica to the spare pool — either an adoption that
// failed mid-seed, or a dead group member retired in favour of a spare
// (if its node ever comes back, it is re-seedable capacity again).
func (g *Gateway) addSpare(rep *replica) {
	g.spareMu.Lock()
	defer g.spareMu.Unlock()
	g.spares = append(g.spares, rep)
}
