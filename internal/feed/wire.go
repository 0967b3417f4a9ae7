// Package feed replicates a route table from one collector to many
// follower replicas over a stream of ordered update batches, turning
// the single-node serve runtime into a horizontally scalable lookup
// service: one collector tails an update trace, every follower applies
// the same ordered stream through its own writer pipeline and so
// converges to a byte-identical canonical compressed table.
//
// The wire protocol is a length-prefixed binary framing over a plain
// TCP stream (stdlib only). Each frame is
//
//	u32  length of the rest of the frame
//	u8   frame type
//	u64  sequence number (meaning depends on the type)
//	...  payload
//	u32  CRC-32 (IEEE) over type+seq+payload
//
// with all integers big-endian. Sequence numbers are monotone batch
// numbers assigned by the collector; a follower acks the last batch it
// fully applied and resumes from there after a reconnect. DESIGN.md
// §11 is the normative spec.
package feed

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
)

// Frame types. The value space is deliberately sparse — unknown types
// are a protocol error, not skippable extensions.
const (
	// FrameHello opens a connection (follower → collector). Seq is the
	// last batch the follower fully applied; the payload says whether
	// that state exists at all (a fresh follower has applied "batch 0"
	// only vacuously and must not resume from it).
	FrameHello byte = 0x01
	// FrameSnapshot carries a full route table (collector → follower).
	// Seq is the last batch included in the table; the follower resets
	// to exactly these routes and resumes the stream after Seq.
	FrameSnapshot byte = 0x02
	// FrameUpdates carries one ordered batch of announce/withdraw
	// records (collector → follower). Seq is the batch number; the
	// payload also carries the collector's current head so followers
	// can report lag.
	FrameUpdates byte = 0x03
	// FrameHash carries the canonical-table digest (onrtc.Digest) at a
	// batch boundary (collector → follower). Seq is the batch the digest
	// covers; a follower that has applied Seq must match or
	// resynchronise.
	FrameHash byte = 0x04
	// FrameAck reports apply progress (follower → collector). Seq is
	// the last batch the follower fully applied. No payload.
	FrameAck byte = 0x05
	// FrameBye announces an orderly end of stream. No payload.
	FrameBye byte = 0x06
)

// Version is the protocol version carried in the hello frame. There is
// no negotiation: a mismatch is a hard error. Version 2 changed the
// meaning, not the shape, of the hash payload: version 1 carried an
// ordered FNV-1a hash, version 2 the order-independent onrtc.Digest.
const Version byte = 2

// helloMagic guards against pointing a follower at something that is
// not a collector (or vice versa).
const helloMagic = "CLUEFEED"

// maxFrame bounds a frame's encoded size (64 MiB fits a snapshot of
// several million routes); anything larger is treated as a corrupt
// length prefix rather than an allocation request.
const maxFrame = 64 << 20

// Frame is one decoded wire frame. Payload is the raw bytes between
// the sequence number and the CRC; the typed encode/decode helpers
// below interpret it per frame type.
type Frame struct {
	Type    byte
	Seq     uint64
	Payload []byte
}

// WriteFrame encodes f onto w with length prefix and trailing CRC.
func WriteFrame(w io.Writer, f Frame) error {
	n := 1 + 8 + len(f.Payload) + 4
	if n > maxFrame {
		return fmt.Errorf("feed: frame type 0x%02x payload %d bytes exceeds limit", f.Type, len(f.Payload))
	}
	buf := make([]byte, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf[4] = f.Type
	binary.BigEndian.PutUint64(buf[5:], f.Seq)
	copy(buf[13:], f.Payload)
	crc := crc32.ChecksumIEEE(buf[4 : 13+len(f.Payload)])
	binary.BigEndian.PutUint32(buf[13+len(f.Payload):], crc)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("feed: write frame: %w", err)
	}
	return nil
}

// ReadFrame decodes the next frame from r. It returns io.EOF only on a
// clean boundary (no bytes read); a frame cut short mid-way is
// io.ErrUnexpectedEOF, and a CRC or length violation is a hard error —
// the stream cannot be trusted past it.
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("feed: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 1+8+4 || n > maxFrame {
		return Frame{}, fmt.Errorf("feed: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, fmt.Errorf("feed: read frame body: %w", err)
	}
	body, sum := buf[:n-4], binary.BigEndian.Uint32(buf[n-4:])
	if crc := crc32.ChecksumIEEE(body); crc != sum {
		return Frame{}, fmt.Errorf("feed: frame CRC mismatch: got %08x, want %08x", crc, sum)
	}
	f := Frame{Type: body[0], Seq: binary.BigEndian.Uint64(body[1:9])}
	if len(body) > 9 {
		f.Payload = body[9:]
	}
	switch f.Type {
	case FrameHello, FrameSnapshot, FrameUpdates, FrameHash, FrameAck, FrameBye:
	default:
		return Frame{}, fmt.Errorf("feed: unknown frame type 0x%02x", f.Type)
	}
	return f, nil
}

// Hello is the decoded hello payload. The frame's Seq carries the last
// applied batch alongside it.
type Hello struct {
	Version byte
	// HasState reports whether the follower holds a table from this
	// stream. Without it, Seq 0 from a fresh follower would look like
	// "caught up to head 0" and the bootstrap snapshot would never be
	// sent.
	HasState bool
}

func encodeHello(h Hello) []byte {
	buf := make([]byte, len(helloMagic)+2)
	copy(buf, helloMagic)
	buf[len(helloMagic)] = h.Version
	if h.HasState {
		buf[len(helloMagic)+1] = 1
	}
	return buf
}

func decodeHello(payload []byte) (Hello, error) {
	if len(payload) != len(helloMagic)+2 {
		return Hello{}, fmt.Errorf("feed: hello payload is %d bytes, want %d", len(payload), len(helloMagic)+2)
	}
	if string(payload[:len(helloMagic)]) != helloMagic {
		return Hello{}, fmt.Errorf("feed: bad hello magic %q", payload[:len(helloMagic)])
	}
	h := Hello{Version: payload[len(helloMagic)]}
	switch payload[len(helloMagic)+1] {
	case 0:
	case 1:
		h.HasState = true
	default:
		return Hello{}, fmt.Errorf("feed: bad hello state flag %d", payload[len(helloMagic)+1])
	}
	if h.Version != Version {
		return Hello{}, fmt.Errorf("feed: protocol version %d, want %d", h.Version, Version)
	}
	return h, nil
}

// routeSize is the encoded size of one route in a snapshot payload.
const routeSize = 4 + 1 + 4

func encodeSnapshot(routes []ip.Route) []byte {
	buf := make([]byte, 4+routeSize*len(routes))
	binary.BigEndian.PutUint32(buf, uint32(len(routes)))
	off := 4
	for _, r := range routes {
		binary.BigEndian.PutUint32(buf[off:], uint32(r.Prefix.Bits))
		buf[off+4] = r.Prefix.Len
		binary.BigEndian.PutUint32(buf[off+5:], uint32(r.NextHop))
		off += routeSize
	}
	return buf
}

func decodeSnapshot(payload []byte) ([]ip.Route, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("feed: snapshot payload truncated (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload)
	if len(payload) != 4+routeSize*int(n) {
		return nil, fmt.Errorf("feed: snapshot claims %d routes but payload is %d bytes", n, len(payload))
	}
	routes := make([]ip.Route, n)
	off := 4
	for i := range routes {
		routes[i] = ip.Route{
			Prefix:  ip.Prefix{Bits: ip.Addr(binary.BigEndian.Uint32(payload[off:])), Len: payload[off+4]},
			NextHop: ip.NextHop(binary.BigEndian.Uint32(payload[off+5:])),
		}
		if routes[i].Prefix.Len > 32 {
			return nil, fmt.Errorf("feed: snapshot route %d has prefix length %d", i, routes[i].Prefix.Len)
		}
		if routes[i].Prefix.Bits&^routes[i].Prefix.Mask() != 0 {
			return nil, fmt.Errorf("feed: snapshot route %d prefix %v has host bits set", i, routes[i].Prefix)
		}
		off += routeSize
	}
	return routes, nil
}

// recordSize is the encoded size of one update record in a batch
// payload: kind, offset (ns), prefix bits, prefix length, next hop.
const recordSize = 1 + 8 + 4 + 1 + 4

// Batch is one ordered group of updates plus the collector's head at
// send time (for follower lag accounting). The frame's Seq is the
// batch number.
type Batch struct {
	Head    uint64
	Records []ribio.UpdateRecord
}

func encodeBatch(b Batch) []byte {
	buf := make([]byte, 8+4+recordSize*len(b.Records))
	binary.BigEndian.PutUint64(buf, b.Head)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(b.Records)))
	off := 12
	for _, u := range b.Records {
		if u.Withdraw {
			buf[off] = 1
		}
		binary.BigEndian.PutUint64(buf[off+1:], uint64(u.At))
		binary.BigEndian.PutUint32(buf[off+9:], uint32(u.Prefix.Bits))
		buf[off+13] = u.Prefix.Len
		binary.BigEndian.PutUint32(buf[off+14:], uint32(u.NextHop))
		off += recordSize
	}
	return buf
}

func decodeBatch(payload []byte) (Batch, error) {
	if len(payload) < 12 {
		return Batch{}, fmt.Errorf("feed: batch payload truncated (%d bytes)", len(payload))
	}
	b := Batch{Head: binary.BigEndian.Uint64(payload)}
	n := binary.BigEndian.Uint32(payload[8:])
	if len(payload) != 12+recordSize*int(n) {
		return Batch{}, fmt.Errorf("feed: batch claims %d records but payload is %d bytes", n, len(payload))
	}
	b.Records = make([]ribio.UpdateRecord, n)
	off := 12
	for i := range b.Records {
		u := &b.Records[i]
		switch payload[off] {
		case 0:
		case 1:
			u.Withdraw = true
		default:
			return Batch{}, fmt.Errorf("feed: batch record %d has kind %d", i, payload[off])
		}
		at := int64(binary.BigEndian.Uint64(payload[off+1:]))
		if at < 0 {
			return Batch{}, fmt.Errorf("feed: batch record %d has negative offset", i)
		}
		u.At = time.Duration(at)
		u.Prefix = ip.Prefix{Bits: ip.Addr(binary.BigEndian.Uint32(payload[off+9:])), Len: payload[off+13]}
		u.NextHop = ip.NextHop(binary.BigEndian.Uint32(payload[off+14:]))
		if err := u.Validate(); err != nil {
			return Batch{}, fmt.Errorf("feed: batch record %d: %w", i, err)
		}
		off += recordSize
	}
	return b, nil
}

// HashInfo is the decoded hash payload: the canonical compressed table
// digest after the batch in the frame's Seq, plus the route count so a
// mismatch report can say how far apart the tables are.
type HashInfo struct {
	Routes uint32
	Hash   uint64
}

func encodeHash(h HashInfo) []byte {
	buf := make([]byte, 4+8)
	binary.BigEndian.PutUint32(buf, h.Routes)
	binary.BigEndian.PutUint64(buf[4:], h.Hash)
	return buf
}

func decodeHash(payload []byte) (HashInfo, error) {
	if len(payload) != 12 {
		return HashInfo{}, fmt.Errorf("feed: hash payload is %d bytes, want 12", len(payload))
	}
	return HashInfo{
		Routes: binary.BigEndian.Uint32(payload),
		Hash:   binary.BigEndian.Uint64(payload[4:]),
	}, nil
}

// CanonicalHash digests a canonical compressed route table: exactly
// onrtc.Digest, the order-independent sum the collector, every replica's
// snapshot and the serve runtime keep incrementally. Two followers
// converged to the same table — the guarantee the feed provides — hash
// identically; this full recompute is the cross-check.
func CanonicalHash(routes []ip.Route) uint64 { return onrtc.Digest(routes) }
