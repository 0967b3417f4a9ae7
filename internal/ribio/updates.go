package ribio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"clue/internal/ip"
)

// UpdateRecord is one incremental routing update in the trace
// interchange format — the announce/withdraw stream a collector tails,
// standing in for the RIPE RIS MRT update files the paper replays.
type UpdateRecord struct {
	// At is the record's offset from the trace start. Records in a trace
	// are ordered: At never decreases.
	At time.Duration
	// Withdraw marks a withdrawal; otherwise the record is an announce.
	Withdraw bool
	// Prefix is the updated prefix.
	Prefix ip.Prefix
	// NextHop is the announced next hop; zero on withdrawals.
	NextHop ip.NextHop
}

// String renders the record in the trace line format.
func (u UpdateRecord) String() string {
	if u.Withdraw {
		return fmt.Sprintf("%s withdraw %s", u.At, u.Prefix)
	}
	return fmt.Sprintf("%s announce %s %d", u.At, u.Prefix, u.NextHop)
}

// Validate checks the invariants every update input surface enforces
// before a record may touch a table: a prefix length of at most 32 with
// no host bits set, a non-zero next hop on an announce and none on a
// withdraw.
func (u UpdateRecord) Validate() error {
	switch {
	case u.Prefix.Len > ip.AddrBits:
		return fmt.Errorf("prefix length %d exceeds %d", u.Prefix.Len, ip.AddrBits)
	case u.Prefix.Bits&^u.Prefix.Mask() != 0:
		return fmt.Errorf("prefix %v has host bits set", u.Prefix)
	case u.Withdraw && u.NextHop != ip.NoRoute:
		return fmt.Errorf("withdraw of %v carries next hop %d", u.Prefix, u.NextHop)
	case !u.Withdraw && u.NextHop == ip.NoRoute:
		return fmt.Errorf("announce of %v has no next hop", u.Prefix)
	}
	return nil
}

// ReadUpdates parses an update trace from r: one update per line,
//
//	<offset> announce <prefix> <next-hop>
//	<offset> withdraw <prefix>
//
// where <offset> is a Go duration ("1.5s", "2m3s") measured from the
// trace start. Offsets must be non-negative and non-decreasing — the
// trace is an ordered stream, which is what the replication feed relies
// on. '#' comments and blank lines are ignored; an input with no
// records is an error, matching Read.
func ReadUpdates(r io.Reader) ([]UpdateRecord, error) {
	var ups []UpdateRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	var prev time.Duration
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("ribio: line %d: want '<offset> announce|withdraw <prefix> [hop]', got %q", line, text)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("ribio: line %d: bad offset %q: %w", line, fields[0], err)
		}
		if at < 0 {
			return nil, fmt.Errorf("ribio: line %d: negative offset %s", line, at)
		}
		if at < prev {
			return nil, fmt.Errorf("ribio: line %d: offset %s goes backwards (previous %s)", line, at, prev)
		}
		prev = at
		u := UpdateRecord{At: at}
		switch fields[1] {
		case "announce":
			if len(fields) != 4 {
				return nil, fmt.Errorf("ribio: line %d: announce wants '<offset> announce <prefix> <hop>', got %q", line, text)
			}
			hop, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil || hop == 0 {
				return nil, fmt.Errorf("ribio: line %d: bad next hop %q (want a positive integer)", line, fields[3])
			}
			u.NextHop = ip.NextHop(hop)
		case "withdraw":
			if len(fields) != 3 {
				return nil, fmt.Errorf("ribio: line %d: withdraw wants '<offset> withdraw <prefix>', got %q", line, text)
			}
			u.Withdraw = true
		default:
			return nil, fmt.Errorf("ribio: line %d: unknown update kind %q", line, fields[1])
		}
		u.Prefix, err = ip.ParsePrefix(fields[2])
		if err != nil {
			return nil, fmt.Errorf("ribio: line %d: %w", line, err)
		}
		ups = append(ups, u)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ribio: %w", err)
	}
	if len(ups) == 0 {
		return nil, fmt.Errorf("ribio: no updates in input")
	}
	return ups, nil
}

// WriteUpdates emits the update trace in the interchange format. It
// validates the same ordering and hop invariants ReadUpdates enforces,
// so a written trace always reads back.
func WriteUpdates(w io.Writer, ups []UpdateRecord) error {
	bw := bufio.NewWriter(w)
	var prev time.Duration
	for i, u := range ups {
		if u.At < 0 || u.At < prev {
			return fmt.Errorf("ribio: update %d: offset %s out of order (previous %s)", i, u.At, prev)
		}
		prev = u.At
		if !u.Withdraw && u.NextHop == 0 {
			return fmt.Errorf("ribio: update %d: announce of %s with zero next hop", i, u.Prefix)
		}
		if _, err := fmt.Fprintf(bw, "%s\n", u); err != nil {
			return fmt.Errorf("ribio: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ribio: %w", err)
	}
	return nil
}
