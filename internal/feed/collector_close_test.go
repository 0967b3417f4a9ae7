package feed

import (
	"net"
	"testing"
	"time"

	"clue/internal/ip"
)

// TestCollectorCloseWithFollowerAttached closes a collector while its
// followers are hanging up, without waiting for the sessions to detach.
// A sender that wakes to a gone follower used to re-read the closed flag
// after dropping the lock, racing Close's write; under -race this test
// reports that. The window is the few microseconds between a sender's
// wake-up and its session's detach, so each round hangs up several
// followers, waits until the collector has noticed the first one, and
// the rounds sweep a short delay before Close across the window.
func TestCollectorCloseWithFollowerAttached(t *testing.T) {
	base := []ip.Route{{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1}}
	const followers = 8
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	for i := 0; i < rounds; i++ {
		c, err := NewCollector(CollectorConfig{BaseRoutes: base})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		conns := make([]net.Conn, followers)
		for j := range conns {
			nc, err := net.DialTimeout("tcp", c.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conns[j] = nc
			if err := WriteFrame(nc, Frame{Type: FrameHello, Payload: encodeHello(Hello{Version: Version})}); err != nil {
				t.Fatal(err)
			}
			// The bootstrap snapshot arriving means the sender loop runs.
			if f, err := ReadFrame(nc); err != nil || f.Type != FrameSnapshot {
				t.Fatalf("bootstrap frame = %+v, %v", f, err)
			}
		}
		for _, nc := range conns {
			nc.Close()
		}
		for noticed := false; !noticed; {
			c.mu.Lock()
			noticed = len(c.conns) < followers
			for cc := range c.conns {
				noticed = noticed || cc.gone
			}
			c.mu.Unlock()
		}
		for until := time.Now().Add(time.Duration(i%16) * 2 * time.Microsecond); time.Now().Before(until); {
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
