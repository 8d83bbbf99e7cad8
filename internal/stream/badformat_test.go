package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func encodedStream(t *testing.T, ups []Update) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFile(&buf, 100, 100, ups); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFileTruncationOffsets: every truncation point is rejected with
// ErrBadFormat, and the mid-body ones name a byte offset (the header is
// 4 bytes of magic + 4 one-byte varints here, so the body starts at 8).
func TestReadFileTruncationOffsets(t *testing.T) {
	good := encodedStream(t, []Update{Ins(1, 2), Del(1, 2), Ins(3, 4)})
	for cut := 0; cut < len(good); cut++ {
		_, _, _, err := ReadFile(bytes.NewReader(good[:cut]))
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("cut at %d: got %v, want ErrBadFormat", cut, err)
		}
		if cut >= 8 && !strings.Contains(err.Error(), "at byte") {
			t.Fatalf("cut at %d: error lacks byte offset: %v", cut, err)
		}
	}
}

// TestReadFileOverCount: a header declaring more updates than the body
// holds is a truncation error naming which update was cut off.
func TestReadFileOverCount(t *testing.T) {
	good := encodedStream(t, []Update{Ins(1, 2), Ins(3, 4)})
	// The count varint is the byte right before the first update's op
	// byte: magic(4) + version(1) + n(1) + m(1) -> index 7.
	bad := append([]byte(nil), good...)
	bad[7] = 9 // declare 9 updates, provide 2
	_, _, _, err := ReadFile(bytes.NewReader(bad))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("got %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "update 2 of 9") {
		t.Fatalf("error does not locate the missing update: %v", err)
	}
}

// TestReadFileHostileCount: a count field claiming 2^40 updates must fail
// cleanly on the missing data instead of pre-allocating terabytes.
func TestReadFileHostileCount(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("FEWW"))
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []uint64{1, 100, 100, 1 << 40} {
		k := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:k])
	}
	buf.Write([]byte{0, 1, 2}) // a single real update
	_, _, _, err := ReadFile(&buf)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("got %v, want ErrBadFormat", err)
	}
}

func TestReadFileTrailingData(t *testing.T) {
	good := encodedStream(t, []Update{Ins(1, 2)})
	bad := append(append([]byte(nil), good...), 0x00)
	_, _, _, err := ReadFile(bytes.NewReader(bad))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("got %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("error does not mention trailing data: %v", err)
	}
}

func TestReadFileBadOpOffset(t *testing.T) {
	good := encodedStream(t, []Update{Ins(1, 2), Ins(3, 4)})
	bad := append([]byte(nil), good...)
	bad[11] = 7 // second update's op byte (header 8 + op,a,b)
	_, _, _, err := ReadFile(bytes.NewReader(bad))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("got %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "bad op byte 7") || !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("error lacks op/offset context: %v", err)
	}
}

// TestScannerTrailingData: input continuing past the declared count —
// e.g. two concatenated frames in one request body — is an error, not a
// silent drop.
func TestScannerTrailingData(t *testing.T) {
	good := encodedStream(t, []Update{Ins(1, 2)})
	bad := append(append([]byte(nil), good...), good...) // two frames back to back
	sc, err := NewScanner(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for sc.Scan() {
		seen++
	}
	if seen != 1 {
		t.Fatalf("scanned %d updates, want 1", seen)
	}
	if !errors.Is(sc.Err(), ErrBadFormat) || !strings.Contains(sc.Err().Error(), "trailing data") {
		t.Fatalf("Err = %v, want ErrBadFormat trailing-data", sc.Err())
	}
}

// TestScannerOffsetAndTruncation: the scanner reports consumed bytes and
// rejects a mid-update truncation with offset context.
func TestScannerOffsetAndTruncation(t *testing.T) {
	ups := []Update{Ins(1, 2), Del(1, 2), Ins(3, 4)}
	good := encodedStream(t, ups)

	sc, err := NewScanner(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if got, want := sc.Offset(), int64(len(good)); got != want {
		t.Fatalf("Offset = %d, want %d", got, want)
	}

	sc, err = NewScanner(bytes.NewReader(good[:len(good)-1]))
	if err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	if !errors.Is(sc.Err(), ErrBadFormat) {
		t.Fatalf("Err = %v, want ErrBadFormat", sc.Err())
	}
	if !strings.Contains(sc.Err().Error(), "update 2 of 3") {
		t.Fatalf("error does not locate the truncated update: %v", sc.Err())
	}
}

// failAfter serves a prefix of data, then fails every read with err.
type failAfter struct {
	data []byte
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadErrorsKeepCause: a read error from the underlying reader — an
// HTTP body cap, say — stays in the chain of the ErrBadFormat error at
// every cut point, for ReadFile and both scanners, so a caller can tell
// an over-long body from a malformed one.
func TestReadErrorsKeepCause(t *testing.T) {
	cause := errors.New("body cap")
	good := encodedStream(t, []Update{Ins(1, 2), Del(1, 2), Ins(3, 4)})
	scan := func(newScanner func(io.Reader) (*Scanner, error)) func(io.Reader) error {
		return func(r io.Reader) error {
			sc, err := newScanner(r)
			if err != nil {
				return err
			}
			for sc.Scan() {
			}
			return sc.Err()
		}
	}
	decoders := map[string]func(io.Reader) error{
		"ReadFile": func(r io.Reader) error {
			_, _, _, err := ReadFile(r)
			return err
		},
		"Scanner":      scan(NewScanner),
		"FrameScanner": scan(NewFrameScanner),
	}
	for name, decode := range decoders {
		for cut := 0; cut <= len(good); cut++ {
			err := decode(&failAfter{data: good[:cut], err: cause})
			if !errors.Is(err, ErrBadFormat) || !errors.Is(err, cause) {
				t.Fatalf("%s, cut at %d: got %v, want ErrBadFormat wrapping the read error", name, cut, err)
			}
		}
	}
}
