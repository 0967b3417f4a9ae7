package ip

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// refParseAddr is the strings.Split + strconv parser ParseAddr
// replaced, kept unchanged as the reference the fuzz targets hold the
// single-pass parser to.
func refParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ip: invalid address %q: want 4 octets, got %d", s, len(parts))
	}
	var a uint32
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ip: invalid address %q: %w", s, err)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// refAddrString and refPrefixString are the fmt.Sprintf formatters
// String replaced.
func refAddrString(a Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

func refPrefixString(p Prefix) string {
	return fmt.Sprintf("%s/%d", refAddrString(p.Bits), p.Len)
}

// refParsePrefix is the strconv.Atoi parser ParsePrefix replaced, with
// one deliberate change: a signed length ("/+8", "/-0") is rejected.
func refParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: missing '/'", s)
	}
	addr, err := refParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	if l := s[slash+1:]; l != "" && (l[0] == '+' || l[0] == '-') {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: signed length", s)
	}
	length, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: %w", s, err)
	}
	p, err := NewPrefix(addr, length)
	if err != nil {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: %w", s, err)
	}
	if p.Bits != addr {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: host bits set beyond /%d", s, length)
	}
	return p, nil
}

// FuzzParsePrefix checks that the parser never panics, accepts and
// rejects exactly what the reference parser does with the same value,
// and that accepted inputs round-trip canonically.
func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/8", "0.0.0.0/0", "255.255.255.255/32", "192.0.2.0/24",
		"1.2.3.4/33", "x/8", "10.0.0.0", "/", "10.0.0.0/", "10.0.0.0/-1",
		"10.0.0.0/08", "010.0.0.0/8", "1.2.3.4.5/8", "4294967296.0.0.0/8",
		"10.0.0.0/+8", "0.0.0.0/-0", "0.0.0.0/0000000000000000000032",
		"0.0.0.0/99999999999999999999", "10.0.0.0/8 ", "10.0.0.0/8/8",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		want, wantErr := refParsePrefix(s)
		if (err == nil) != (wantErr == nil) || p != want {
			t.Fatalf("ParsePrefix(%q) = %v, %v; reference %v, %v", s, p, err, want, wantErr)
		}
		if err != nil {
			return
		}
		// Accepted prefixes must be canonical and round-trip.
		if p.Bits&^p.Mask() != 0 {
			t.Fatalf("non-canonical prefix from %q: %v", s, p)
		}
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip of %q failed: %v, %v", s, back, err)
		}
		if got := string(p.AppendTo([]byte("x"))); got != "x"+refPrefixString(p) || p.String() != refPrefixString(p) {
			t.Fatalf("AppendTo of %v = %q, String %q, reference %q", p, got, p.String(), refPrefixString(p))
		}
	})
}

// FuzzParseAddr checks the address parser likewise, through both
// ParseAddr and UnmarshalText, and the MarshalText round trip.
func FuzzParseAddr(f *testing.F) {
	for _, seed := range []string{
		"0.0.0.0", "255.255.255.255", "1.2.3", "a.b.c.d", "1..2.3",
		"1.2.3.4.", ".1.2.3", "00000000001.2.3.4", "1.2.3.+4", "1.2.3.4 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		want, wantErr := refParseAddr(s)
		if (err == nil) != (wantErr == nil) || a != want {
			t.Fatalf("ParseAddr(%q) = %v, %v; reference %v, %v", s, a, err, want, wantErr)
		}
		var u Addr
		if uerr := u.UnmarshalText([]byte(s)); (uerr == nil) != (err == nil) || u != a {
			t.Fatalf("UnmarshalText(%q) = %v, %v; ParseAddr %v, %v", s, u, uerr, a, err)
		}
		if err != nil {
			return
		}
		text, err := a.MarshalText()
		if err != nil || string(text) != refAddrString(a) {
			t.Fatalf("MarshalText of %v = %q, %v; reference %q", a, text, err, refAddrString(a))
		}
		var back Addr
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Fatalf("text round trip of %q failed: %v, %v", s, back, err)
		}
		if got := string(a.AppendTo([]byte("x"))); got != "x"+refAddrString(a) || a.String() != refAddrString(a) {
			t.Fatalf("AppendTo of %v = %q, String %q, reference %q", a, got, a.String(), refAddrString(a))
		}
	})
}

// TestCodecAllocs holds the text codec's hot path at zero allocations:
// appending into a buffer with room, and parsing a valid address or
// prefix.
func TestCodecAllocs(t *testing.T) {
	p := MustParsePrefix("203.0.113.0/24")
	a := MustParseAddr("203.0.113.255")
	buf := make([]byte, 0, 64)
	text := []byte("198.51.100.7")
	var u Addr
	for name, fn := range map[string]func(){
		"Addr.AppendTo":      func() { buf = a.AppendTo(buf[:0]) },
		"Prefix.AppendTo":    func() { buf = p.AppendTo(buf[:0]) },
		"ParseAddr":          func() { a, _ = ParseAddr("198.51.100.7") },
		"ParsePrefix":        func() { p, _ = ParsePrefix("203.0.113.0/24") },
		"Addr.UnmarshalText": func() { _ = u.UnmarshalText(text) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", name, n)
		}
	}
}
