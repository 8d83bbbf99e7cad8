package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Scanner reads a stream file incrementally, one update at a time, so
// arbitrarily large files can be replayed in constant memory — the whole
// point of a streaming algorithm.  Usage mirrors bufio.Scanner:
//
//	sc, err := stream.NewScanner(f)
//	for sc.Scan() {
//	    u := sc.Update()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	current  Update
	err      error
	or       *offsetReader
	n, m     int64
	total    uint64 // updates declared in the current frame's header
	read     uint64 // updates read from the current frame
	declared uint64 // updates declared across all frames seen so far
	frame    int    // index of the current frame (0-based)
	frames   bool   // accept concatenated frames after the first
	eofCheck bool   // trailing-data probe already done
}

// NewScanner validates the header of a stream file and positions the
// scanner before the first update.  Header errors wrap ErrBadFormat with
// the byte offset of the fault.  The input must be exactly one frame:
// bytes after the declared update count are rejected (see NewFrameScanner
// for the multi-frame ingest variant).
func NewScanner(r io.Reader) (*Scanner, error) {
	return newScanner(r, false)
}

// NewFrameScanner is NewScanner for framed input: one or more complete
// FEWW streams concatenated back to back, scanned as one logical sequence
// of updates.  Every frame must declare the same universe sizes as the
// first — frames are a transport chunking, not a way to smuggle a second
// stream — and each frame is validated exactly as a standalone file
// (truncation, over-counts and bad ops are still errors with byte
// offsets).  A single-frame body behaves identically to NewScanner except
// that trailing data starting with a valid header is consumed as the next
// frame instead of rejected.  This is the wire format the cluster gateway
// streams to members: per-chunk frames written while the inbound request
// is still being parsed.
func NewFrameScanner(r io.Reader) (*Scanner, error) {
	return newScanner(r, true)
}

func newScanner(r io.Reader, frames bool) (*Scanner, error) {
	or := &offsetReader{br: bufio.NewReader(r)}
	n, m, total, err := readHeader(or)
	if err != nil {
		return nil, err
	}
	return &Scanner{or: or, n: n, m: m, total: total, declared: total, frames: frames}, nil
}

// N returns |A| from the header.
func (s *Scanner) N() int64 { return s.n }

// M returns |B| from the header.
func (s *Scanner) M() int64 { return s.m }

// Total returns the number of updates declared by the headers seen so
// far — for a single-frame stream, exactly the header's count; for a
// frame scanner, the running sum over the frames consumed.
func (s *Scanner) Total() int64 { return int64(s.declared) }

// Scan advances to the next update; it returns false at the end of the
// stream or on error (distinguish with Err).  A stream that ends before
// the declared count — an over-count header or a truncated transfer — is
// an error wrapping ErrBadFormat with the byte offset it was detected at,
// and so is input continuing past the declared count (checked by a
// one-byte probe once the count is reached).
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.read == s.total {
		if !s.frames {
			s.checkTrailing()
			return false
		}
		if !s.nextFrame() {
			return false
		}
	}
	u, err := readUpdate(s.or, s.read, s.total)
	if err != nil {
		s.err = err
		return false
	}
	s.current = u
	s.read++
	return true
}

// nextFrame advances a frame scanner past the current frame's declared
// count: a clean EOF ends the stream, anything else must be the next
// frame's header, declaring the same universe sizes.  It returns false at
// the end of input or on error (recorded in s.err).
func (s *Scanner) nextFrame() bool {
	if _, err := s.or.br.Peek(1); err == io.EOF {
		return false
	} else if err != nil {
		s.err = fmt.Errorf("%w: at byte %d: %w", ErrBadFormat, s.or.off, err)
		return false
	}
	frameStart := s.or.off
	n, m, total, err := readHeader(s.or)
	if err != nil {
		s.err = err
		return false
	}
	if n != s.n || m != s.m {
		s.err = fmt.Errorf("%w: frame %d at byte %d declares universe n=%d m=%d, frame 0 declared n=%d m=%d",
			ErrBadFormat, s.frame+1, frameStart, n, m, s.n, s.m)
		return false
	}
	s.frame++
	s.total = total
	s.read = 0
	s.declared += total
	return true
}

// checkTrailing rejects bytes following the declared update count, the
// same way ReadFile does — a concatenated second stream or an
// under-counting header must not be silently dropped on the ingest path.
func (s *Scanner) checkTrailing() {
	if s.eofCheck {
		return
	}
	s.eofCheck = true
	if _, err := s.or.ReadByte(); err == nil {
		s.err = fmt.Errorf("%w: trailing data after the %d declared updates at byte %d",
			ErrBadFormat, s.total, s.or.off-1)
	} else if err != io.EOF {
		s.err = fmt.Errorf("%w: at byte %d: %w", ErrBadFormat, s.or.off, err)
	}
}

// Update returns the update read by the last successful Scan.
func (s *Scanner) Update() Update { return s.current }

// Offset returns the number of input bytes consumed so far — the resume
// point when replaying a partially ingested file.
func (s *Scanner) Offset() int64 { return s.or.off }

// Err returns the first error encountered, or nil at a clean end of
// stream.  A stream shorter than its header declares is an error.
func (s *Scanner) Err() error {
	if s.err != nil {
		return s.err
	}
	return nil
}

// Appender writes a stream file incrementally.  Because the on-disk header
// carries an update count, the total must be declared up front; Close
// verifies the declared and written counts agree.
type Appender struct {
	bw       *bufio.Writer
	declared uint64
	written  uint64
	buf      [binary.MaxVarintLen64]byte
	err      error
}

// NewAppender writes the header and returns an appender expecting exactly
// count updates.
func NewAppender(w io.Writer, n, m int64, count int64) (*Appender, error) {
	if count < 0 {
		return nil, fmt.Errorf("stream: NewAppender with count = %d", count)
	}
	a := &Appender{bw: bufio.NewWriter(w), declared: uint64(count)}
	if _, err := a.bw.Write(fileMagic[:]); err != nil {
		return nil, err
	}
	for _, v := range []uint64{fileVersion, uint64(n), uint64(m), uint64(count)} {
		a.uvarint(v)
	}
	return a, a.err
}

func (a *Appender) uvarint(v uint64) {
	if a.err != nil {
		return
	}
	k := binary.PutUvarint(a.buf[:], v)
	_, a.err = a.bw.Write(a.buf[:k])
}

// Append writes one update.
func (a *Appender) Append(u Update) error {
	if a.err != nil {
		return a.err
	}
	if a.written == a.declared {
		a.err = fmt.Errorf("stream: Append beyond the declared count %d", a.declared)
		return a.err
	}
	op := byte(0)
	if u.Op == Delete {
		op = 1
	}
	if a.err = a.bw.WriteByte(op); a.err != nil {
		return a.err
	}
	a.uvarint(uint64(u.A))
	a.uvarint(uint64(u.B))
	if a.err == nil {
		a.written++
	}
	return a.err
}

// Close flushes and verifies that exactly the declared number of updates
// was written.
func (a *Appender) Close() error {
	if a.err != nil {
		return a.err
	}
	if a.written != a.declared {
		return fmt.Errorf("stream: Appender closed after %d of %d declared updates", a.written, a.declared)
	}
	return a.bw.Flush()
}
