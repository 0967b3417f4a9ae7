package dred

import (
	"fmt"
	"testing"
)

func TestCacheResetDropsEntriesKeepsStats(t *testing.T) {
	c := NewCache(8)
	c.Insert(rt("10.0.0.0/8", 1))
	c.Insert(rt("192.168.0.0/16", 2))
	c.Insert(rt("172.16.0.0/12", 3))
	c.Lookup(addr("10.1.2.3")) // hit
	c.Lookup(addr("11.0.0.1")) // miss
	before := c.Stats()
	if before.Inserts != 3 || before.Lookups != 2 || before.Hits != 1 {
		t.Fatalf("pre-reset stats: %+v", before)
	}

	c.Reset()

	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", c.Len())
	}
	if c.Contains(pfx("10.0.0.0/8")) {
		t.Fatal("entry survived Reset")
	}
	if _, _, ok := c.Lookup(addr("10.1.2.3")); ok {
		t.Fatal("match trie still answers after Reset")
	}
	// Reset is a flush, not a new cache: the activity history survives
	// (the post-reset miss above is the only delta) and so does capacity.
	after := c.Stats()
	if after.Inserts != before.Inserts || after.Hits != before.Hits ||
		after.Lookups != before.Lookups+1 || after.Evictions != before.Evictions {
		t.Fatalf("stats changed across Reset: before %+v after %+v", before, after)
	}
	if c.Capacity() != 8 {
		t.Fatalf("capacity after Reset = %d, want 8", c.Capacity())
	}
}

func TestCacheUsableAfterReset(t *testing.T) {
	c := NewCache(2)
	c.Insert(rt("10.0.0.0/8", 1))
	c.Insert(rt("192.168.0.0/16", 2))
	c.Reset()

	// The reused structures behave like new: fills, LPM answers, LRU
	// eviction and invalidation all work on the second generation.
	c.Insert(rt("203.0.113.0/24", 4))
	if hop, _, ok := c.Lookup(addr("203.0.113.9")); !ok || hop != 4 {
		t.Fatalf("post-reset lookup = (%d, %v)", hop, ok)
	}
	c.Insert(rt("198.51.100.0/24", 5))
	c.Insert(rt("100.64.0.0/10", 6)) // over capacity: evicts the LRU entry
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if !c.Invalidate(pfx("100.64.0.0/10")) {
		t.Fatal("invalidate after reset failed")
	}
	// Repeated resets (serve's repeated cache flushes) stay consistent.
	for gen := 0; gen < 5; gen++ {
		c.Reset()
		if c.Len() != 0 {
			t.Fatalf("gen %d: Len = %d after Reset", gen, c.Len())
		}
		p := fmt.Sprintf("10.%d.0.0/16", gen)
		c.Insert(rt(p, 9))
		if !c.Contains(pfx(p)) {
			t.Fatalf("gen %d: insert after Reset missing", gen)
		}
	}
}
