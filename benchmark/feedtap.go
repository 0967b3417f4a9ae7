package main

import (
	"encoding/binary"
	"net"
	"sync"
)

// frameTap watches the collector→follower byte stream from the
// follower's side of the socket: it counts every byte and, on request,
// keeps whole frames (it follows the u32 length prefixes, so a capture
// always starts and ends on a frame boundary). The per-layer wire probes
// replay the captured frames through feed.ReadFrame/WriteFrame.
type frameTap struct {
	mu        sync.Mutex
	bytes     int64
	hdr       [4]byte
	hdrN      int
	remaining int    // body bytes left in the frame being read
	want      int    // frames still to keep
	cur       []byte // frame being kept (nil: not keeping this one)
	frames    [][]byte
}

// capture asks for the next n frames to be kept.
func (t *frameTap) capture(n int) {
	t.mu.Lock()
	t.want = n
	t.mu.Unlock()
}

// take returns the frames kept so far and the byte count, resetting both.
func (t *frameTap) take() ([][]byte, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, b := t.frames, t.bytes
	t.frames, t.bytes = nil, 0
	return f, b
}

func (t *frameTap) feed(p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes += int64(len(p))
	for len(p) > 0 {
		if t.remaining == 0 {
			n := copy(t.hdr[t.hdrN:], p)
			t.hdrN += n
			p = p[n:]
			if t.hdrN < len(t.hdr) {
				return
			}
			t.hdrN = 0
			t.remaining = int(binary.BigEndian.Uint32(t.hdr[:]))
			if t.want > 0 {
				t.cur = append(make([]byte, 0, 4+t.remaining), t.hdr[:]...)
			}
			continue
		}
		n := min(t.remaining, len(p))
		if t.cur != nil {
			t.cur = append(t.cur, p[:n]...)
		}
		t.remaining -= n
		p = p[n:]
		if t.remaining == 0 && t.cur != nil {
			t.frames = append(t.frames, t.cur)
			t.cur = nil
			t.want--
		}
	}
}

type tappedConn struct {
	net.Conn
	tap *frameTap
}

func (c *tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.tap.feed(p[:n])
	}
	return n, err
}
