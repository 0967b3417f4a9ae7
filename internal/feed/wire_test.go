package feed

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"

	"clue/internal/ip"
	"clue/internal/ribio"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Seq: 0, Payload: encodeHello(Hello{Version: Version})},
		{Type: FrameHello, Seq: 42, Payload: encodeHello(Hello{Version: Version, HasState: true})},
		{Type: FrameSnapshot, Seq: 7, Payload: encodeSnapshot([]ip.Route{
			{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 3},
			{Prefix: ip.MustParsePrefix("0.0.0.0/0"), NextHop: 1},
		})},
		{Type: FrameUpdates, Seq: 8, Payload: encodeBatch(Batch{Head: 9, Records: []ribio.UpdateRecord{
			{At: time.Second, Prefix: ip.MustParsePrefix("192.0.2.0/24"), NextHop: 7},
			{At: 2 * time.Second, Withdraw: true, Prefix: ip.MustParsePrefix("10.0.0.0/8")},
		}})},
		{Type: FrameHash, Seq: 9, Payload: encodeHash(HashInfo{Routes: 12, Hash: 0xdeadbeefcafe})},
		{Type: FrameAck, Seq: 9},
		{Type: FrameBye},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d changed: %+v -> %+v", i, want, got)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at clean stream end, got %v", err)
	}
}

func TestReadFrameRejects(t *testing.T) {
	encode := func(f Frame) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, f); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ack := encode(Frame{Type: FrameAck, Seq: 5})

	t.Run("corrupt CRC", func(t *testing.T) {
		bad := append([]byte(nil), ack...)
		bad[len(bad)-1] ^= 0xff
		if _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want CRC error, got %v", err)
		}
	})
	t.Run("corrupt body", func(t *testing.T) {
		bad := append([]byte(nil), ack...)
		bad[6] ^= 0x01 // a seq byte
		if _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want CRC error, got %v", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(encode(Frame{Type: 0x7f}))); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Fatalf("want unknown-type error, got %v", err)
		}
	})
	t.Run("length too small", func(t *testing.T) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], 3)
		if _, err := ReadFrame(bytes.NewReader(b[:])); err == nil || !strings.Contains(err.Error(), "bad frame length") {
			t.Fatalf("want length error, got %v", err)
		}
	})
	t.Run("length too large", func(t *testing.T) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], maxFrame+1)
		if _, err := ReadFrame(bytes.NewReader(b[:])); err == nil || !strings.Contains(err.Error(), "bad frame length") {
			t.Fatalf("want length error, got %v", err)
		}
	})
	t.Run("truncated mid-frame", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(ack[:len(ack)-2])); err == nil || err == io.EOF {
			t.Fatalf("want unexpected-EOF error, got %v", err)
		}
	})
	t.Run("truncated length prefix", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(ack[:2])); err == nil || err == io.EOF {
			t.Fatalf("want error for torn length prefix, got %v", err)
		}
	})
}

func TestHelloDecode(t *testing.T) {
	for _, h := range []Hello{{Version: Version}, {Version: Version, HasState: true}} {
		got, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("hello changed: %+v -> %+v", h, got)
		}
	}
	bad := encodeHello(Hello{Version: Version})
	bad[0] = 'X'
	if _, err := decodeHello(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := decodeHello(encodeHello(Hello{Version: Version + 1})); err == nil {
		t.Fatal("version mismatch accepted")
	}
	// Version 1 peers hash with the ordered FNV digest; comparing their
	// hash frames against this one would flag every batch as diverged.
	if _, err := decodeHello(encodeHello(Hello{Version: 1})); err == nil {
		t.Fatal("version 1 hello accepted")
	}
	flag := encodeHello(Hello{Version: Version})
	flag[len(flag)-1] = 2
	if _, err := decodeHello(flag); err == nil {
		t.Fatal("bad state flag accepted")
	}
	if _, err := decodeHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
}

func TestSnapshotDecodeRejects(t *testing.T) {
	good := encodeSnapshot([]ip.Route{{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1}})
	if _, err := decodeSnapshot(good[:len(good)-1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	short := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(short, 2) // claims 2 routes, carries 1
	if _, err := decodeSnapshot(short); err == nil {
		t.Fatal("count mismatch accepted")
	}
	hostBits := append([]byte(nil), good...)
	hostBits[7] = 1 // 10.0.0.1/8
	if _, err := decodeSnapshot(hostBits); err == nil {
		t.Fatal("host bits accepted")
	}
	badLen := append([]byte(nil), good...)
	badLen[8] = 33
	if _, err := decodeSnapshot(badLen); err == nil {
		t.Fatal("prefix length 33 accepted")
	}
	empty, err := decodeSnapshot(encodeSnapshot(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty snapshot should decode to zero routes, got %v, %v", empty, err)
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	good := encodeBatch(Batch{Head: 3, Records: []ribio.UpdateRecord{
		{At: time.Second, Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
	}})
	if _, err := decodeBatch(good[:len(good)-1]); err == nil {
		t.Fatal("truncated batch accepted")
	}
	kind := append([]byte(nil), good...)
	kind[12] = 7
	if _, err := decodeBatch(kind); err == nil {
		t.Fatal("bad record kind accepted")
	}
	zeroHop := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(zeroHop[12+14:], 0)
	if _, err := decodeBatch(zeroHop); err == nil {
		t.Fatal("announce with zero hop accepted")
	}
	wdHop := encodeBatch(Batch{Records: []ribio.UpdateRecord{
		{Withdraw: true, Prefix: ip.MustParsePrefix("10.0.0.0/8")},
	}})
	wdHop[12+14+3] = 9 // stamp a hop onto the withdraw
	if _, err := decodeBatch(wdHop); err == nil {
		t.Fatal("withdraw with hop accepted")
	}
}

// TestCanonicalHash: the digest is a function of the route set alone —
// order-independent, so it can be kept incrementally — and still
// separates tables that differ in a next hop or in membership.
func TestCanonicalHash(t *testing.T) {
	a := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("192.0.2.0/24"), NextHop: 2},
	}
	if CanonicalHash(a) != CanonicalHash(a) {
		t.Fatal("hash not deterministic")
	}
	b := []ip.Route{a[1], a[0]}
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Fatal("hash depends on order — the digest is a sum over the route set")
	}
	c := []ip.Route{a[0], {Prefix: a[1].Prefix, NextHop: 3}}
	if CanonicalHash(a) == CanonicalHash(c) {
		t.Fatal("hash ignores next hops")
	}
	if CanonicalHash(nil) == CanonicalHash(a) {
		t.Fatal("empty table collides with non-empty")
	}
	for _, d := range [][]ip.Route{
		a[:1],
		append(a[:2:2], ip.Route{Prefix: ip.MustParsePrefix("10.0.0.0/9"), NextHop: 1}),
		{a[0], {Prefix: ip.MustParsePrefix("192.0.2.0/25"), NextHop: 2}},
		{a[0], {Prefix: ip.MustParsePrefix("192.0.3.0/24"), NextHop: 2}},
	} {
		if CanonicalHash(d) == CanonicalHash(a) {
			t.Fatalf("hash ignores membership: %v collides with %v", d, a)
		}
	}
	// Swapping two routes' hops changes the set, so it changes the hash.
	swapped := []ip.Route{{Prefix: a[0].Prefix, NextHop: 2}, {Prefix: a[1].Prefix, NextHop: 1}}
	if CanonicalHash(swapped) == CanonicalHash(a) {
		t.Fatal("hash ignores which prefix carries which hop")
	}
}
