// Package ip provides IPv4 address and prefix value types used throughout
// the CLUE system.
//
// Prefixes are the fundamental currency of the routing substrate: the trie,
// the ONRTC compressor, the TCAM model and the DRed caches all operate on
// them. The representation is chosen for bit-level work: an Addr is a
// uint32 in host order, and a Prefix is (bits, length) with the unused low
// bits always zero, which makes prefixes directly comparable and usable as
// map keys.
package ip

import (
	"errors"
	"fmt"
	"strings"
)

// Addr is an IPv4 address in host byte order (most significant byte is the
// first octet).
type Addr uint32

// ParseAddr parses dotted-quad notation ("192.0.2.1") into an Addr.
// Each octet is one or more decimal digits (leading zeros allowed) of
// value at most 255; nothing else is accepted, not even surrounding
// space.
func ParseAddr(s string) (Addr, error) { return parseAddr(s) }

// parseAddr is ParseAddr in one pass over the text, for both string
// and []byte input (UnmarshalText), allocating only on error.
func parseAddr[T string | []byte](s T) (Addr, error) {
	var a, octet uint32
	dots, digits := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			octet = octet*10 + uint32(c-'0')
			if octet > 255 {
				return 0, fmt.Errorf("ip: invalid address %q: octet out of range", string(s))
			}
			digits++
		case c == '.' && digits > 0 && dots < 3:
			a = a<<8 | octet
			octet, digits = 0, 0
			dots++
		default:
			return 0, errAddrSyntax(string(s))
		}
	}
	if dots != 3 || digits == 0 {
		return 0, errAddrSyntax(string(s))
	}
	return Addr(a<<8 | octet), nil
}

func errAddrSyntax(s string) error {
	return fmt.Errorf("ip: invalid address %q: want four dot-separated decimal octets", s)
}

// MustParseAddr is ParseAddr for trusted literals; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return string(a.AppendTo(make([]byte, 0, maxAddrLen)))
}

// maxAddrLen is the length of the longest dotted quad, "255.255.255.255".
const maxAddrLen = 15

// AppendTo appends the dotted-quad form of a to b and returns the
// extended buffer.
func (a Addr) AppendTo(b []byte) []byte {
	b = appendDecimal(b, byte(a>>24))
	b = append(b, '.')
	b = appendDecimal(b, byte(a>>16))
	b = append(b, '.')
	b = appendDecimal(b, byte(a>>8))
	b = append(b, '.')
	return appendDecimal(b, byte(a))
}

// MarshalText implements encoding.TextMarshaler: the dotted quad.
func (a Addr) MarshalText() ([]byte, error) {
	return a.AppendTo(make([]byte, 0, maxAddrLen)), nil
}

// UnmarshalText implements encoding.TextUnmarshaler with ParseAddr's
// grammar, so encoding/json decodes a JSON string straight into an
// Addr.
func (a *Addr) UnmarshalText(text []byte) error {
	v, err := parseAddr(text)
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// appendDecimal appends v in decimal without leading zeros.
func appendDecimal(b []byte, v uint8) []byte {
	switch {
	case v >= 100:
		return append(b, '0'+v/100, '0'+v/10%10, '0'+v%10)
	case v >= 10:
		return append(b, '0'+v/10, '0'+v%10)
	}
	return append(b, '0'+v)
}

// Bit returns bit i of the address, where bit 0 is the most significant
// bit. i must be in [0, 31].
func (a Addr) Bit(i int) uint32 {
	return (uint32(a) >> (31 - i)) & 1
}

// AddrBits is the number of bits in an IPv4 address.
const AddrBits = 32

// Prefix is an IPv4 CIDR prefix. Bits holds the prefix bits left-aligned
// with all bits beyond Len zeroed; Len is the prefix length in [0, 32].
// The zero value is the default route 0.0.0.0/0.
type Prefix struct {
	Bits Addr
	Len  uint8
}

// ErrPrefixLen reports a prefix length outside [0, 32].
var ErrPrefixLen = errors.New("ip: prefix length out of range")

// NewPrefix constructs a canonical prefix from addr and length, masking
// off any bits beyond the prefix length.
func NewPrefix(addr Addr, length int) (Prefix, error) {
	if length < 0 || length > AddrBits {
		return Prefix{}, fmt.Errorf("%w: %d", ErrPrefixLen, length)
	}
	return Prefix{Bits: addr & maskFor(length), Len: uint8(length)}, nil
}

// MustPrefix is NewPrefix for trusted inputs; it panics on error.
func MustPrefix(addr Addr, length int) Prefix {
	p, err := NewPrefix(addr, length)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation ("10.0.0.0/8"): an address in
// ParseAddr's grammar, '/', and a length of one or more decimal digits
// (leading zeros allowed, no sign). Host bits beyond the prefix length
// are rejected rather than silently masked, so that config typos
// surface early.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: missing '/'", s)
	}
	addr, err := parseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	digits := s[slash+1:]
	if digits == "" {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: empty length", s)
	}
	length := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return Prefix{}, fmt.Errorf("ip: invalid prefix %q: length is not a decimal number", s)
		}
		// Saturate just past the range, so any run of digits stays
		// bounded and still fails NewPrefix.
		length = min(length*10+int(c-'0'), AddrBits+1)
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

// MustParsePrefix is ParsePrefix for trusted literals; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// maskFor returns the netmask for a prefix of the given length.
func maskFor(length int) Addr {
	if length == 0 {
		return 0
	}
	return Addr(^uint32(0) << (AddrBits - length))
}

// Mask returns the prefix's netmask.
func (p Prefix) Mask() Addr { return maskFor(int(p.Len)) }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return string(p.AppendTo(make([]byte, 0, maxAddrLen+4)))
}

// AppendTo appends the CIDR form of p to b and returns the extended
// buffer.
func (p Prefix) AppendTo(b []byte) []byte {
	b = p.Bits.AppendTo(b)
	b = append(b, '/')
	return appendDecimal(b, p.Len)
}

// BitString renders the prefix as its bit pattern followed by '*', the
// notation used in the paper's figures (e.g. "100*"). The default route
// renders as "*".
func (p Prefix) BitString() string {
	var b strings.Builder
	for i := 0; i < int(p.Len); i++ {
		b.WriteByte(byte('0' + p.Bits.Bit(i)))
	}
	b.WriteByte('*')
	return b.String()
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr Addr) bool {
	return addr&p.Mask() == p.Bits
}

// Covers reports whether p covers q, i.e. q's address block is contained
// in (or equal to) p's.
func (p Prefix) Covers(q Prefix) bool {
	return p.Len <= q.Len && q.Bits&p.Mask() == p.Bits
}

// Overlaps reports whether the two prefixes share any address, which for
// prefixes means one covers the other.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// First returns the lowest address in the prefix.
func (p Prefix) First() Addr { return p.Bits }

// Last returns the highest address in the prefix.
func (p Prefix) Last() Addr { return p.Bits | ^p.Mask() }

// Child returns the left (bit=0) or right (bit=1) half of the prefix.
// It panics if the prefix is already a host route (/32).
func (p Prefix) Child(bit uint32) Prefix {
	if p.Len >= AddrBits {
		panic("ip: Child of /32 prefix")
	}
	c := Prefix{Bits: p.Bits, Len: p.Len + 1}
	if bit != 0 {
		c.Bits |= 1 << (AddrBits - 1 - uint32(p.Len))
	}
	return c
}

// Parent returns the prefix one bit shorter. It panics on the default
// route.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		panic("ip: Parent of default route")
	}
	length := int(p.Len) - 1
	return Prefix{Bits: p.Bits & maskFor(length), Len: uint8(length)}
}

// Sibling returns the prefix that shares p's parent. It panics on the
// default route.
func (p Prefix) Sibling() Prefix {
	if p.Len == 0 {
		panic("ip: Sibling of default route")
	}
	return Prefix{Bits: p.Bits ^ (1 << (AddrBits - uint32(p.Len))), Len: p.Len}
}

// Compare orders prefixes by their position in an inorder trie traversal:
// first by starting address, then shorter (covering) prefixes before
// longer ones. It returns -1, 0 or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Bits < q.Bits:
		return -1
	case p.Bits > q.Bits:
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}

// NextHop identifies a forwarding next hop. Zero means "no route": the
// trie and compressed tables use NoRoute for uncovered address space, so
// real next hops must be non-zero.
type NextHop uint32

// NoRoute is the absent next hop.
const NoRoute NextHop = 0

// Route is a prefix with its forwarding decision — one FIB entry.
type Route struct {
	Prefix  Prefix
	NextHop NextHop
}

// String renders the route as "prefix -> hop".
func (r Route) String() string {
	return fmt.Sprintf("%s -> %d", r.Prefix, r.NextHop)
}
