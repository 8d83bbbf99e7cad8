package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// Body is one encoded published answer: the bytes WriteJSON would write
// for it, a content ETag, and the response header values pre-built, so
// serving a Body again allocates nothing.  A Body is immutable once
// NewBody returns it; any number of requests may serve it at once.
//
// The ETag is a truncated SHA-256 of the bytes, not an epoch vector: two
// bodies share a tag exactly when their bytes are equal.  So a tag stays
// valid across a restore or a restart (a node back at epoch 0 would
// otherwise revalidate a tag minted for different state), and replicas
// holding identical state hand out identical tags, which is what lets a
// gateway revalidate whichever replica its read rotation picks.
type Body struct {
	bytes  []byte
	etag   []string // one quoted entity-tag
	length []string // Content-Length
}

// jsonContentType is the Content-Type header value of a served Body.
var jsonContentType = []string{"application/json"}

// NewBody encodes v exactly as WriteJSON does and tags the bytes.
func NewBody(v any) (*Body, error) {
	var buf bytes.Buffer
	if err := jsonEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return &Body{
		bytes:  buf.Bytes(),
		etag:   []string{`"` + hex.EncodeToString(sum[:16]) + `"`},
		length: []string{strconv.Itoa(buf.Len())},
	}, nil
}

// ServeHTTP writes the body with status 200 and its ETag — or, when the
// request's If-None-Match names that tag (or is "*"), a 304 with the tag
// and no body.
func (b *Body) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h["Etag"] = b.etag
	if etagListed(r.Header["If-None-Match"], b.etag[0]) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = b.length
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.bytes) // the status is on the wire; only the client can fail here
}

// etagListed reports whether an If-None-Match header names etag, under
// the weak comparison RFC 9110 prescribes for it: a W/ prefix is
// ignored, and "*" matches any current answer.  It does not allocate.
func etagListed(header []string, etag string) bool {
	for _, line := range header {
		for line != "" {
			var tag string
			tag, line, _ = strings.Cut(line, ",")
			tag = strings.TrimSpace(tag)
			if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
				return true
			}
		}
	}
	return false
}

// BodySlot caches one Body under a key: the latest Put wins, and Get
// answers only for exactly that key.  The node keys its published
// /best and /results on (backend generation, epoch sum); the gateway
// keys its merged answers on the members' ETags.
type BodySlot[K comparable] struct {
	p atomic.Pointer[keyedBody[K]]
}

type keyedBody[K comparable] struct {
	key  K
	body *Body
}

// Get returns the cached body if it was stored under key, else nil.
func (s *BodySlot[K]) Get(key K) *Body {
	if e := s.p.Load(); e != nil && e.key == key {
		return e.body
	}
	return nil
}

// Put caches b under key, replacing whatever the slot held.
func (s *BodySlot[K]) Put(key K, b *Body) {
	s.p.Store(&keyedBody[K]{key: key, body: b})
}

// publishedKey names one published state of the served backend: the
// backend generation (bumped by every POST /restore swap) and the sum of
// its shards' published epochs, which within one backend names one
// epoch vector (see Backend.EpochSum).
type publishedKey struct {
	gen, epochs uint64
}

// servePublished serves a published /best or /results read from slot,
// encoding answer(be) only when the served backend has published since
// the slot was filled.  The epoch sum is read before and after the
// answer is computed, a seqlock: only when both readings agree is the
// body certainly the answer of that epoch vector, and only then is it
// cached.  A hit reads the sum once; the body it serves is the answer
// of a state the backend held during that read.  The encoded bytes are
// what WriteJSON would write, so cached and uncached replies are
// byte-identical.
func (s *Server) servePublished(w http.ResponseWriter, r *http.Request, slot *BodySlot[publishedKey], answer func(Backend) any) {
	be, gen := s.pinned()
	key := publishedKey{gen: gen, epochs: be.EpochSum()}
	if b := slot.Get(key); b != nil {
		b.ServeHTTP(w, r)
		return
	}
	b, err := NewBody(answer(be))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if be.EpochSum() == key.epochs {
		slot.Put(key, b)
	}
	b.ServeHTTP(w, r)
}
