package cluster

import (
	"net/http"
	"strings"
	"sync/atomic"

	"feww/server"
)

// Conditional published reads.  A member's published /best and /results
// replies carry a content ETag (a hash of the reply bytes, see
// server.Body), so the gateway remembers, per group and endpoint, the
// last tag and the answer it named, and sends that tag to whichever
// replica the read rotation picks.  A replica whose answer is unchanged
// replies 304 with no body and the gateway reuses the remembered answer;
// because tags hash content, not epochs, the 304 is sound across the
// rotation, restores and restarts alike.  When every group's tag is
// unchanged the merged reply is reused too, keyed on the tuple of member
// tags.  Fresh reads bypass all of it.

// memberAnswer is a group's last published answer to one query: the
// member's ETag and the answer it names, already rung-checked and
// remapped to global ids.  Immutable once stored.
type memberAnswer[T any] struct {
	etag string
	v    T
}

// answerSlot holds a group's memberAnswer for one query endpoint.
type answerSlot[T any] struct {
	p atomic.Pointer[memberAnswer[T]]
}

func (s *answerSlot[T]) load() *memberAnswer[T] { return s.p.Load() }

func (s *answerSlot[T]) store(etag string, v T) {
	s.p.Store(&memberAnswer[T]{etag: etag, v: v})
}

// scatterRead reads every group's slice of a query concurrently through
// groupRead — the published or the fresh member call per fresh —
// rejects an answer whose star rung contradicts the cluster kind, and
// remaps each answer's range-local vertex ids to global ones.  rung
// reports an answer's rung, with ok false when the answer is empty and
// there is nothing to check.  A published read is conditional on the
// tag remembered in the group's slot: a 304 reuses the remembered
// answer, checked and remapped when it arrived, and a tagged 200
// replaces it.  tags holds each group's member ETag, "" for an untagged
// or fresh answer.
func scatterRead[T any](g *Gateway, fresh bool, slot func(*group) *answerSlot[T],
	published func(cl *server.Client, etag string) (v T, tag string, notModified bool, err error),
	freshRead func(*server.Client) (T, error),
	rung func(T) (rung int, ok bool), remap func(T, int64) T) (out []T, tags []string, err error) {
	out, tags = make([]T, len(g.groups)), make([]string, len(g.groups))
	errs := g.scatterGroups(func(j int, gr *group) error {
		var prev *memberAnswer[T]
		etag := ""
		if !fresh {
			if prev = slot(gr).load(); prev != nil {
				etag = prev.etag
			}
		}
		return g.groupRead(gr, fresh, func(cl *server.Client) error {
			var (
				v           T
				tag         string
				notModified bool
				err         error
			)
			if fresh {
				v, err = freshRead(cl)
			} else {
				v, tag, notModified, err = published(cl, etag)
			}
			if err != nil {
				return err
			}
			if notModified { // only ever in reply to prev's tag
				out[j], tags[j] = prev.v, prev.etag
				return nil
			}
			if rg, ok := rung(v); ok {
				if err := g.checkAnswerRung(rg); err != nil {
					return err
				}
			}
			out[j], tags[j] = remap(v, gr.rng.Lo), tag
			if tag != "" {
				slot(gr).store(tag, out[j])
			}
			return nil
		})
	})
	return out, tags, g.firstError(errs)
}

// serveMerged writes a merged answer.  With every member answer tagged,
// the encoded merge is cached in slot under the tuple of member tags and
// served as a server.Body: reused while no group's answer changes, under
// its own content ETag, so the gateway's clients can revalidate too.  A
// fresh merge, or one over an untagged member answer, is encoded per
// request with no ETag, as fewwd's fresh replies are.
func serveMerged(w http.ResponseWriter, r *http.Request, slot *server.BodySlot[string], tags []string, merge func() any) {
	for _, t := range tags {
		if t == "" {
			server.WriteJSON(w, http.StatusOK, merge())
			return
		}
	}
	// Header values cannot hold a newline, so the join is unambiguous.
	key := strings.Join(tags, "\n")
	b := slot.Get(key)
	if b == nil {
		var err error
		if b, err = server.NewBody(merge()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		slot.Put(key, b)
	}
	b.ServeHTTP(w, r)
}
