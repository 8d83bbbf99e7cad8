package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary stream file format (used by cmd/fewwgen and cmd/fewwrun):
//
//	magic   [4]byte  "FEWW"
//	version uvarint  (currently 1)
//	n       uvarint  |A|
//	m       uvarint  |B|
//	count   uvarint  number of updates
//	count times:
//	    op    byte    0 = insert, 1 = delete
//	    a     uvarint
//	    b     uvarint

var fileMagic = [4]byte{'F', 'E', 'W', 'W'}

const fileVersion = 1

// ErrBadFormat is returned when decoding a malformed stream file.
var ErrBadFormat = errors.New("stream: bad file format")

// WriteFile encodes a stream with its universe sizes to w.
func WriteFile(w io.Writer, n, m int64, ups []Update) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	for _, v := range []uint64{fileVersion, uint64(n), uint64(m), uint64(len(ups))} {
		if err := writeUvarint(v); err != nil {
			return err
		}
	}
	for _, u := range ups {
		op := byte(0)
		if u.Op == Delete {
			op = 1
		}
		if err := bw.WriteByte(op); err != nil {
			return err
		}
		if err := writeUvarint(uint64(u.A)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(u.B)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FrameWriter encodes FEWW frames — complete stream files, written back
// to back — reusing one internal buffer across frames, so a long-lived
// forwarding path (the cluster gateway's chunked split-forward loop) pays
// no per-frame allocation once the buffer has grown to the chunk size.
// Each frame is handed to the underlying writer as a single Write, which
// keeps io.Pipe hand-offs at one per frame.  A FrameWriter is not safe
// for concurrent use.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a FrameWriter emitting frames to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame encodes one complete frame (header plus the updates) and
// writes it to the underlying writer.  The result is byte-identical to
// WriteFile with the same arguments; a sequence of WriteFrame calls is
// what NewFrameScanner consumes.
func (fw *FrameWriter) WriteFrame(n, m int64, ups []Update) error {
	buf := append(fw.buf[:0], fileMagic[:]...)
	for _, v := range []uint64{fileVersion, uint64(n), uint64(m), uint64(len(ups))} {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, u := range ups {
		op := byte(0)
		if u.Op == Delete {
			op = 1
		}
		buf = append(buf, op)
		buf = binary.AppendUvarint(buf, uint64(u.A))
		buf = binary.AppendUvarint(buf, uint64(u.B))
	}
	fw.buf = buf
	_, err := fw.w.Write(buf)
	return err
}

// maxPreallocUpdates caps the slice capacity ReadFile trusts the header
// with.  A header is attacker-controlled input on a network ingest path,
// and its count field can claim 2^64-1 updates; beyond the cap the slice
// grows by append, so an over-count costs an error, not an allocation.
const maxPreallocUpdates = 1 << 20

// offsetReader counts consumed bytes so that decode errors can report
// exactly where the input went wrong — the difference between "bad
// upload" and "bad upload at byte 1048571 of a 1 GiB replay".
type offsetReader struct {
	br  *bufio.Reader
	off int64
}

func (r *offsetReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

func (r *offsetReader) Read(p []byte) (int, error) {
	nr, err := r.br.Read(p)
	r.off += int64(nr)
	return nr, err
}

// readHeader validates the magic/version prefix and returns the declared
// universe sizes and update count.
func readHeader(or *offsetReader) (n, m int64, count uint64, err error) {
	var magic [4]byte
	if _, err = io.ReadFull(or, magic[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: reading magic at byte %d: %w", ErrBadFormat, or.off, err)
	}
	if magic != fileMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	version, err := binary.ReadUvarint(or)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%w: reading version at byte %d: %w", ErrBadFormat, or.off, err)
	}
	if version != fileVersion {
		return 0, 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	hdr := make([]uint64, 3)
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(or); err != nil {
			return 0, 0, 0, fmt.Errorf("%w: reading header field %d at byte %d: %w", ErrBadFormat, i, or.off, err)
		}
	}
	return int64(hdr[0]), int64(hdr[1]), hdr[2], nil
}

// readUpdate decodes the i-th of count updates, reporting truncation with
// the byte offset it happened at.
func readUpdate(or *offsetReader, i, count uint64) (Update, error) {
	fail := func(what string, err error) (Update, error) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Update{}, fmt.Errorf("%w: truncated in %s of update %d of %d at byte %d: %w",
			ErrBadFormat, what, i, count, or.off, err)
	}
	op, err := or.ReadByte()
	if err != nil {
		return fail("op", err)
	}
	a, err := binary.ReadUvarint(or)
	if err != nil {
		return fail("item", err)
	}
	b, err := binary.ReadUvarint(or)
	if err != nil {
		return fail("witness", err)
	}
	u := Ins(int64(a), int64(b))
	if op == 1 {
		u.Op = Delete
	} else if op != 0 {
		return Update{}, fmt.Errorf("%w: bad op byte %d in update %d of %d at byte %d",
			ErrBadFormat, op, i, count, or.off)
	}
	return u, nil
}

// ReadFile decodes a stream file written by WriteFile.  Malformed input —
// truncated data, a count field exceeding the updates actually present, a
// bad op byte, or trailing bytes after the declared count — is rejected
// with an error wrapping ErrBadFormat that carries the byte offset of the
// fault.
func ReadFile(r io.Reader) (n, m int64, ups []Update, err error) {
	or := &offsetReader{br: bufio.NewReader(r)}
	n, m, count, err := readHeader(or)
	if err != nil {
		return 0, 0, nil, err
	}
	ups = make([]Update, 0, int(min(count, maxPreallocUpdates)))
	for i := uint64(0); i < count; i++ {
		u, err := readUpdate(or, i, count)
		if err != nil {
			return 0, 0, nil, err
		}
		ups = append(ups, u)
	}
	if _, err := or.ReadByte(); err == nil {
		return 0, 0, nil, fmt.Errorf("%w: trailing data after the %d declared updates at byte %d",
			ErrBadFormat, count, or.off-1)
	} else if err != io.EOF {
		return 0, 0, nil, fmt.Errorf("%w: at byte %d: %w", ErrBadFormat, or.off, err)
	}
	return n, m, ups, nil
}
