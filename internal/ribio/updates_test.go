package ribio

import (
	"strings"
	"testing"
	"time"

	"clue/internal/ip"
)

func TestReadUpdates(t *testing.T) {
	in := `# update trace
0s announce 10.0.0.0/8 3

1.5s withdraw 10.0.0.0/8
1.5s announce 192.0.2.0/24 7
2m3s announce 0.0.0.0/0 1
`
	ups, err := ReadUpdates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []UpdateRecord{
		{At: 0, Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 3},
		{At: 1500 * time.Millisecond, Withdraw: true, Prefix: ip.MustParsePrefix("10.0.0.0/8")},
		{At: 1500 * time.Millisecond, Prefix: ip.MustParsePrefix("192.0.2.0/24"), NextHop: 7},
		{At: 2*time.Minute + 3*time.Second, Prefix: ip.MustParsePrefix("0.0.0.0/0"), NextHop: 1},
	}
	if len(ups) != len(want) {
		t.Fatalf("got %d records, want %d", len(ups), len(want))
	}
	for i := range want {
		if ups[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, ups[i], want[i])
		}
	}
}

func TestReadUpdatesRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":            "",
		"comments only":    "# nothing\n",
		"missing hop":      "0s announce 10.0.0.0/8\n",
		"zero hop":         "0s announce 10.0.0.0/8 0\n",
		"hop on withdraw":  "0s withdraw 10.0.0.0/8 3\n",
		"unknown kind":     "0s readvertise 10.0.0.0/8 3\n",
		"bad offset":       "soon announce 10.0.0.0/8 3\n",
		"negative offset":  "-1s announce 10.0.0.0/8 3\n",
		"offset backwards": "2s announce 10.0.0.0/8 3\n1s withdraw 10.0.0.0/8\n",
		"host bits":        "0s announce 10.0.0.1/8 3\n",
		"bad prefix":       "0s announce 10.0.0.0/33 3\n",
	} {
		if _, err := ReadUpdates(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestWriteUpdatesRoundTrip(t *testing.T) {
	ups := []UpdateRecord{
		{At: 0, Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 3},
		{At: time.Second + 1, Prefix: ip.MustParsePrefix("10.128.0.0/9"), NextHop: 9},
		{At: 90 * time.Second, Withdraw: true, Prefix: ip.MustParsePrefix("10.0.0.0/8")},
		{At: time.Hour, Prefix: ip.MustParsePrefix("255.255.255.255/32"), NextHop: 4294967295},
	}
	var b strings.Builder
	if err := WriteUpdates(&b, ups); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUpdates(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, b.String())
	}
	if len(back) != len(ups) {
		t.Fatalf("round trip changed count: %d -> %d", len(ups), len(back))
	}
	for i := range ups {
		if back[i] != ups[i] {
			t.Errorf("record %d changed: %+v -> %+v", i, ups[i], back[i])
		}
	}
}

func TestWriteUpdatesRejects(t *testing.T) {
	if err := WriteUpdates(&strings.Builder{}, []UpdateRecord{
		{At: 2 * time.Second, Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{At: time.Second, Withdraw: true, Prefix: ip.MustParsePrefix("10.0.0.0/8")},
	}); err == nil {
		t.Error("out-of-order offsets accepted")
	}
	if err := WriteUpdates(&strings.Builder{}, []UpdateRecord{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8")},
	}); err == nil {
		t.Error("zero-hop announce accepted")
	}
}

func TestUpdateRecordValidate(t *testing.T) {
	p := ip.MustParsePrefix("10.1.0.0/16")
	for _, u := range []UpdateRecord{
		{Prefix: p, NextHop: 3},
		{Withdraw: true, Prefix: p},
		{Prefix: ip.Prefix{}, NextHop: 1},
		{Prefix: ip.MustParsePrefix("10.1.2.3/32"), NextHop: 1},
	} {
		if err := u.Validate(); err != nil {
			t.Errorf("%v rejected: %v", u, err)
		}
	}
	for _, u := range []UpdateRecord{
		{Prefix: p},
		{Withdraw: true, Prefix: p, NextHop: 3},
		{Prefix: ip.Prefix{Bits: p.Bits | 1, Len: 16}, NextHop: 3},
		{Prefix: ip.Prefix{Bits: p.Bits, Len: 33}, NextHop: 3},
		{Withdraw: true, Prefix: ip.Prefix{Bits: p.Bits, Len: 40}},
	} {
		if err := u.Validate(); err == nil {
			t.Errorf("%v accepted", u)
		}
	}
}
