package onrtc

import "clue/internal/ip"

// Digest is the canonical digest of a compressed route table: the sum,
// mod 2^64, of one 64-bit mix per route over its (bits, length, next
// hop). A sum is order-independent and invertible, so a table keeps its
// digest current in O(1) per compressed-table op (Table.Digest) while
// this function recomputes it from scratch for cross-checks. Two tables
// holding the same routes digest identically; the feed's hash frames and
// the serve snapshot's CanonicalHash both carry this value.
func Digest(routes []ip.Route) uint64 {
	var sum uint64
	for _, r := range routes {
		sum += routeMix(r.Prefix, r.NextHop)
	}
	return sum
}

// routeMix hashes one route: the splitmix64 finaliser over bits and hop,
// then again over that and the prefix length.
func routeMix(p ip.Prefix, hop ip.NextHop) uint64 {
	return mix64(mix64(uint64(p.Bits)<<32|uint64(hop)) ^ uint64(p.Len))
}

// mix64 is splitmix64: a golden-ratio increment (so zero is not a fixed
// point) followed by its bijective finaliser.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
