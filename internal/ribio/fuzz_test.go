package ribio

import (
	"strings"
	"testing"
)

// FuzzRead checks the reader never panics, that accepted inputs
// round-trip exactly through Write → Read, and that acceptance implies
// every non-comment line was well-formed (malformed lines must reject the
// whole input, matching the fuzz style of internal/ip and internal/onrtc).
// FuzzReadUpdates checks the update-trace reader never panics, that
// accepted inputs round-trip exactly through WriteUpdates → ReadUpdates,
// and that acceptance implies the stream invariants hold: offsets
// non-negative and non-decreasing, positive hops on announces, canonical
// prefixes.
func FuzzReadUpdates(f *testing.F) {
	for _, seed := range []string{
		"0s announce 10.0.0.0/8 1\n",
		"# trace\n0s announce 10.0.0.0/8 1\n\n1.5s withdraw 10.0.0.0/8\n",
		"0s announce 0.0.0.0/0 1\n1ms announce 255.255.255.255/32 4294967295\n",
		"1m30s withdraw 192.0.2.0/24\n",
		"2m3.000000001s announce 10.0.0.0/8 2\n",
		"0s announce 10.0.0.0/8 1\n0s announce 10.0.0.0/8 2\n", // same offset twice
		"",
		"0s announce 10.0.0.0/8\n",    // missing hop
		"0s withdraw 10.0.0.0/8 3\n",  // hop on withdraw
		"0s announce 10.0.0.0/8 0\n",  // zero hop
		"-1s announce 10.0.0.0/8 1\n", // negative offset
		"2s announce 10.0.0.0/8 1\n1s withdraw 10.0.0.0/8\n", // backwards
		"0s readvertise 10.0.0.0/8 1\n",                      // unknown kind
		"0s announce 10.0.0.1/8 1\n",                         // host bits set
		"soon announce 10.0.0.0/8 1\n",                       // unparseable offset
		"\t 0s \tannounce 10.0.0.0/8 1\r\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ups, err := ReadUpdates(strings.NewReader(s))
		if err != nil {
			return
		}
		if len(ups) == 0 {
			t.Fatalf("accepted input %q with zero updates", s)
		}
		prev := ups[0].At
		for _, u := range ups {
			if u.At < 0 || u.At < prev {
				t.Fatalf("accepted out-of-order offset %s from %q", u.At, s)
			}
			prev = u.At
			if !u.Withdraw && u.NextHop == 0 {
				t.Fatalf("accepted zero next hop from %q", s)
			}
			if u.Withdraw && u.NextHop != 0 {
				t.Fatalf("accepted withdraw with a hop from %q", s)
			}
			if u.Prefix.Bits&^u.Prefix.Mask() != 0 {
				t.Fatalf("accepted non-canonical prefix %v from %q", u.Prefix, s)
			}
		}
		var b strings.Builder
		if err := WriteUpdates(&b, ups); err != nil {
			t.Fatalf("write of accepted updates failed: %v", err)
		}
		back, err := ReadUpdates(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-read of written updates failed: %v\n%s", err, b.String())
		}
		if len(back) != len(ups) {
			t.Fatalf("round trip changed update count: %d -> %d", len(ups), len(back))
		}
		for i := range ups {
			if back[i] != ups[i] {
				t.Fatalf("round trip changed update %d: %v -> %v", i, ups[i], back[i])
			}
		}
	})
}

func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/8 1\n",
		"# comment\n10.0.0.0/8 1\n\n192.0.2.0/24 7\n",
		"0.0.0.0/0 3\n255.255.255.255/32 4294967295\n",
		"10.0.0.0/8 1\n10.0.0.0/8 2\n", // duplicates allowed
		"",
		"10.0.0.0/8\n",        // missing hop
		"10.0.0.0/8 1 2\n",    // extra field
		"10.0.0.1/8 1\n",      // host bits set
		"10.0.0.0/8 0\n",      // zero hop
		"10.0.0.0/8 -1\n",     // negative hop
		"10.0.0.0/33 1\n",     // bad length
		"x/8 1\n",             // bad address
		"10.0.0.0/8 1\r\n",    // CR handling
		"\t 10.0.0.0/8 \t1\n", // surrounding whitespace
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		routes, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		if len(routes) == 0 {
			t.Fatalf("accepted input %q with zero routes", s)
		}
		for _, r := range routes {
			if r.NextHop == 0 {
				t.Fatalf("accepted zero next hop from %q", s)
			}
			if r.Prefix.Bits&^r.Prefix.Mask() != 0 {
				t.Fatalf("accepted non-canonical prefix %v from %q", r.Prefix, s)
			}
		}
		// Accepted inputs must round-trip exactly: Write emits the
		// canonical form and Read must reproduce the same route list,
		// duplicates and order included.
		var b strings.Builder
		if err := Write(&b, routes); err != nil {
			t.Fatalf("write of accepted routes failed: %v", err)
		}
		back, err := Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-read of written routes failed: %v\n%s", err, b.String())
		}
		if len(back) != len(routes) {
			t.Fatalf("round trip changed route count: %d -> %d", len(routes), len(back))
		}
		for i := range routes {
			if back[i] != routes[i] {
				t.Fatalf("round trip changed route %d: %v -> %v", i, routes[i], back[i])
			}
		}
	})
}
