// Package enginesnap holds the FEWWENG1 engine snapshot header: an 8-byte
// magic, then one byte naming the engine kind.  The feww engines write
// and check it; the server peeks it to pick the engine to restore.
package enginesnap

import (
	"bufio"
	"fmt"
)

// Magic opens every engine snapshot; HeaderSize adds the kind byte.
var Magic = [8]byte{'F', 'E', 'W', 'W', 'E', 'N', 'G', '1'}

const HeaderSize = len(Magic) + 1

// PeekKind checks the magic at the head of br and returns the kind byte
// after it, leaving br unread.
func PeekKind(br *bufio.Reader) (byte, error) {
	head, err := br.Peek(HeaderSize)
	if err != nil {
		return 0, fmt.Errorf("reading engine snapshot header: %v", err)
	}
	if [8]byte(head) != Magic {
		return 0, fmt.Errorf("bad engine magic %q", head[:len(Magic)])
	}
	return head[len(Magic)], nil
}
