package ip

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in      string
		want    Addr
		wantErr bool
	}{
		{in: "0.0.0.0", want: 0},
		{in: "255.255.255.255", want: 0xFFFFFFFF},
		{in: "192.0.2.1", want: 0xC0000201},
		{in: "10.0.0.1", want: 0x0A000001},
		{in: "1.2.3", wantErr: true},
		{in: "1.2.3.4.5", wantErr: true},
		{in: "256.0.0.0", wantErr: true},
		{in: "a.b.c.d", wantErr: true},
		{in: "", wantErr: true},
		{in: "-1.0.0.0", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseAddr(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", tt.in, got, tt.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrBit(t *testing.T) {
	a := MustParseAddr("128.0.0.1")
	if a.Bit(0) != 1 {
		t.Errorf("Bit(0) of 128.0.0.1 = %d, want 1", a.Bit(0))
	}
	if a.Bit(1) != 0 {
		t.Errorf("Bit(1) of 128.0.0.1 = %d, want 0", a.Bit(1))
	}
	if a.Bit(31) != 1 {
		t.Errorf("Bit(31) of 128.0.0.1 = %d, want 1", a.Bit(31))
	}
}

func TestNewPrefixMasksHostBits(t *testing.T) {
	p, err := NewPrefix(MustParseAddr("10.1.2.3"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bits != MustParseAddr("10.0.0.0") {
		t.Errorf("NewPrefix masked bits = %s, want 10.0.0.0", p.Bits)
	}
	if p.Len != 8 {
		t.Errorf("Len = %d, want 8", p.Len)
	}
}

func TestNewPrefixRange(t *testing.T) {
	if _, err := NewPrefix(0, -1); err == nil {
		t.Error("NewPrefix(-1) succeeded, want error")
	}
	if _, err := NewPrefix(0, 33); err == nil {
		t.Error("NewPrefix(33) succeeded, want error")
	}
	for l := 0; l <= 32; l++ {
		if _, err := NewPrefix(0, l); err != nil {
			t.Errorf("NewPrefix(0, %d) = %v, want nil", l, err)
		}
	}
}

// TestParsePrefix pins the CIDR grammar every input surface shares
// (ribio, the HTTP API, the oracle scripts): one case per edge.
func TestParsePrefix(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    string
		wantErr bool
	}{
		{name: "default route /0", in: "0.0.0.0/0", want: "0.0.0.0/0"},
		{name: "host route /32", in: "255.255.255.255/32", want: "255.255.255.255/32"},
		{name: "plain /8", in: "10.0.0.0/8", want: "10.0.0.0/8"},
		{name: "plain /24", in: "192.0.2.0/24", want: "192.0.2.0/24"},
		{name: "length 33", in: "10.0.0.0/33", wantErr: true},
		{name: "host bits set", in: "10.0.0.1/8", wantErr: true},
		{name: "bare address without slash", in: "10.0.0.0", wantErr: true},
		{name: "empty octet", in: "10..0.0/8", wantErr: true},
		{name: "octet 256", in: "256.0.0.0/8", wantErr: true},
		{name: "trailing dot", in: "10.0.0.0./8", wantErr: true},
		{name: "leading space", in: " 10.0.0.0/8", wantErr: true},
		{name: "trailing space", in: "10.0.0.0/8 ", wantErr: true},
		{name: "plus sign on length", in: "10.0.0.0/+8", wantErr: true},
		{name: "minus zero length", in: "0.0.0.0/-0", wantErr: true},
		{name: "plus sign on octet", in: "+10.0.0.0/8", wantErr: true},
		{name: "empty length", in: "10.0.0.0/", wantErr: true},
		{name: "non-numeric length", in: "10.0.0.0/x", wantErr: true},
		{name: "leading zeros accepted", in: "010.0.0.0/08", want: "10.0.0.0/8"},
		{name: "many leading zeros in length", in: "10.0.0.0/000000000000000000008", want: "10.0.0.0/8"},
		{name: "huge length", in: "10.0.0.0/99999999999999999999", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParsePrefix(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParsePrefix(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && got.String() != tt.want {
				t.Errorf("ParsePrefix(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestPrefixBitString(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{in: "0.0.0.0/0", want: "*"},
		{in: "128.0.0.0/1", want: "1*"},
		{in: "128.0.0.0/3", want: "100*"},
		{in: "64.0.0.0/2", want: "01*"},
	}
	for _, tt := range tests {
		if got := MustParsePrefix(tt.in).BitString(); got != tt.want {
			t.Errorf("BitString(%s) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.0.1")) {
		t.Error("10.0.0.0/8 should contain 10.255.0.1")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("10.0.0.0/8 should not contain 11.0.0.0")
	}
	def := Prefix{}
	if !def.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("default route should contain everything")
	}
}

func TestPrefixCoversOverlaps(t *testing.T) {
	p8 := MustParsePrefix("10.0.0.0/8")
	p16 := MustParsePrefix("10.1.0.0/16")
	q16 := MustParsePrefix("11.0.0.0/16")
	if !p8.Covers(p16) {
		t.Error("/8 should cover its /16")
	}
	if p16.Covers(p8) {
		t.Error("/16 should not cover its /8")
	}
	if !p8.Covers(p8) {
		t.Error("prefix should cover itself")
	}
	if p8.Covers(q16) {
		t.Error("10/8 should not cover 11.0/16")
	}
	if !p8.Overlaps(p16) || !p16.Overlaps(p8) {
		t.Error("nested prefixes should overlap both ways")
	}
	if p16.Overlaps(q16) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.First() != MustParseAddr("192.0.2.0") {
		t.Errorf("First = %s", p.First())
	}
	if p.Last() != MustParseAddr("192.0.2.255") {
		t.Errorf("Last = %s", p.Last())
	}
	def := Prefix{}
	if def.First() != 0 || def.Last() != 0xFFFFFFFF {
		t.Errorf("default route range = [%s, %s]", def.First(), def.Last())
	}
}

func TestPrefixChildParentSibling(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	l, r := p.Child(0), p.Child(1)
	if l.String() != "10.0.0.0/9" {
		t.Errorf("left child = %s", l)
	}
	if r.String() != "10.128.0.0/9" {
		t.Errorf("right child = %s", r)
	}
	if l.Parent() != p || r.Parent() != p {
		t.Error("children's parent should be the original prefix")
	}
	if l.Sibling() != r || r.Sibling() != l {
		t.Error("children should be each other's siblings")
	}
}

func TestPrefixChildPanicsOnHostRoute(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Child of /32 should panic")
		}
	}()
	MustParsePrefix("1.2.3.4/32").Child(0)
}

func TestPrefixParentPanicsOnDefault(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Parent of /0 should panic")
		}
	}()
	Prefix{}.Parent()
}

func TestPrefixSiblingPanicsOnDefault(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sibling of /0 should panic")
		}
	}()
	Prefix{}.Sibling()
}

func TestPrefixCompare(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("shorter prefix at same address should order first")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("lower address should order first")
	}
	if a.Compare(a) != 0 {
		t.Error("prefix should compare equal to itself")
	}
}

// Property: Child/Parent round-trip for random prefixes.
func TestChildParentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		length := rng.Intn(32) // 0..31 so Child is legal
		p := MustPrefix(Addr(rng.Uint32()), length)
		bit := uint32(rng.Intn(2))
		c := p.Child(bit)
		if c.Parent() != p {
			t.Fatalf("Child(%d).Parent of %s = %s, want %s", bit, p, c.Parent(), p)
		}
		if !p.Covers(c) {
			t.Fatalf("%s should cover its child %s", p, c)
		}
	}
}

// Property: Contains is equivalent to the [First, Last] range check.
func TestContainsMatchesRange(t *testing.T) {
	f := func(bits, probe uint32, lenSeed uint8) bool {
		length := int(lenSeed) % 33
		p := MustPrefix(Addr(bits), length)
		a := Addr(probe)
		inRange := a >= p.First() && a <= p.Last()
		return p.Contains(a) == inRange
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Overlaps is symmetric and equivalent to range intersection.
func TestOverlapsMatchesRangeIntersection(t *testing.T) {
	f := func(b1, b2 uint32, l1, l2 uint8) bool {
		p := MustPrefix(Addr(b1), int(l1)%33)
		q := MustPrefix(Addr(b2), int(l2)%33)
		intersect := p.First() <= q.Last() && q.First() <= p.Last()
		return p.Overlaps(q) == intersect && p.Overlaps(q) == q.Overlaps(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteString(t *testing.T) {
	r := Route{Prefix: MustParsePrefix("10.0.0.0/8"), NextHop: 3}
	if got := r.String(); got != "10.0.0.0/8 -> 3" {
		t.Errorf("Route.String() = %q", got)
	}
}

func TestPrefixStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		p := MustPrefix(Addr(rng.Uint32()), rng.Intn(33))
		back, err := ParsePrefix(p.String())
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", p.String(), err)
		}
		if back != p {
			t.Fatalf("round trip %s -> %s", p, back)
		}
	}
}

// TestFormatMatchesReference checks every length and random addresses
// against the fmt.Sprintf formatting String replaced, including the
// non-canonical Len values only a struct literal can build.
func TestFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		p := Prefix{Bits: Addr(rng.Uint32()), Len: uint8(rng.Intn(256))}
		if got, want := p.String(), refPrefixString(p); got != want {
			t.Fatalf("Prefix%+v.String() = %q, want %q", p, got, want)
		}
		if got, want := p.Bits.String(), refAddrString(p.Bits); got != want {
			t.Fatalf("Addr(%#x).String() = %q, want %q", uint32(p.Bits), got, want)
		}
	}
}
