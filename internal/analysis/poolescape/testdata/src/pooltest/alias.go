// The alias rule: contents of a pooled buffer must not outlive the Put
// that returns the buffer — a cached body built in a pooled encode
// buffer is rewritten by the next request that Gets it.  Copies pass.
package pooltest

import (
	"bytes"
	"sync"
)

var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type body struct{ bytes []byte }

// aliasedBody keeps the pooled bytes in the value it returns.
func aliasedBody(v string) *body {
	buf := encPool.Get().(*bytes.Buffer)
	defer encPool.Put(buf)
	buf.Reset()
	buf.WriteString(v)
	return &body{bytes: buf.Bytes()} // want "aliases pooled buffer buf"
}

// aliasedReturn hands the pooled bytes back through a local.
func aliasedReturn(v string) []byte {
	buf := encPool.Get().(*bytes.Buffer)
	buf.WriteString(v)
	out := buf.Bytes()[:buf.Len()]
	encPool.Put(buf)
	return out // want "aliases pooled buffer buf"
}

// aliasedSlice parks a reslice of a pooled slice in a caller's struct.
func aliasedSlice(dst *body) {
	b := bufPool.Get().(*[]byte)
	*b = append((*b)[:0], 1, 2)
	dst.bytes = append((*b)[:0], 3) // want "aliases pooled buffer b"
	bufPool.Put(b)
}

// copiedBody is the clean idiom: the value owns its bytes.
func copiedBody(v string) *body {
	buf := encPool.Get().(*bytes.Buffer)
	defer encPool.Put(buf)
	buf.Reset()
	buf.WriteString(v)
	return &body{bytes: bytes.Clone(buf.Bytes())}
}

// copiedAppend copies onto nil, and resets the buffer in place.
func copiedAppend() []byte {
	b := bufPool.Get().(*[]byte)
	*b = append((*b)[:0], 1)
	out := append([]byte(nil), (*b)...)
	bufPool.Put(b)
	return out
}
