package feed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"clue/internal/ip"
	"clue/internal/ribio"
)

// Applier is the state machine a follower drives: a full reset on
// snapshot, one Apply per update frame (its records in order), and the
// canonical compressed table's digest (onrtc.Digest) for hash
// verification. RuntimeApplier adapts the serve runtime; tests use
// lighter implementations.
type Applier interface {
	Reset(routes []ip.Route) error
	Apply(recs []ribio.UpdateRecord) error
	CanonicalHash() uint64
}

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Dial opens a connection to the (current) collector. Indirection
	// rather than a fixed address so chaos tests can repoint a live
	// follower at a restarted collector.
	Dial func() (net.Conn, error)
	// Applier receives the replicated state.
	Applier Applier
	// BackoffMin and BackoffMax bound the reconnect backoff (defaults
	// 10ms and 1s). Backoff doubles per failed attempt and resets
	// after a session that made progress.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// AckEvery acks after every N applied batches (default 1).
	// Snapshots are always acked immediately.
	AckEvery int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.BackoffMin == 0 {
		c.BackoffMin = 10 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.AckEvery == 0 {
		c.AckEvery = 1
	}
	return c
}

// FollowerStats is a point-in-time snapshot of follower progress.
type FollowerStats struct {
	// State is "connecting", "syncing", "streaming" or "closed".
	State string `json:"state"`
	// LastApplied is the last fully applied batch; Head is the
	// collector's head as of the last frame; Lag is their distance.
	LastApplied uint64 `json:"last_applied"`
	Head        uint64 `json:"head"`
	Lag         uint64 `json:"lag"`

	Reconnects     uint64 `json:"reconnects"`
	SnapshotLoads  uint64 `json:"snapshot_loads"`
	Resumes        uint64 `json:"resumes"`
	Batches        uint64 `json:"batches"`
	Records        uint64 `json:"records"`
	HashChecks     uint64 `json:"hash_checks"`
	HashMismatches uint64 `json:"hash_mismatches"`
}

// Follower connects to a collector, bootstraps from a snapshot and
// applies the ordered batch stream, reconnecting with exponential
// backoff and resuming from the last applied batch (or taking a fresh
// snapshot when the collector can no longer replay from there).
type Follower struct {
	cfg  FollowerConfig
	stop chan struct{}
	done chan struct{}

	mu            sync.Mutex
	conn          net.Conn
	state         string
	hasState      bool
	forceSnapshot bool // after a hash mismatch: discard state, re-bootstrap
	stats         FollowerStats
	closed        bool
}

// NewFollower validates cfg and starts the replication loop.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Dial == nil {
		return nil, errors.New("feed: FollowerConfig.Dial is required")
	}
	if cfg.Applier == nil {
		return nil, errors.New("feed: FollowerConfig.Applier is required")
	}
	f := &Follower{
		cfg:   cfg.withDefaults(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		state: "connecting",
	}
	go f.run()
	return f, nil
}

// Stats returns a snapshot of follower progress.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.State = f.state
	if s.Head > s.LastApplied {
		s.Lag = s.Head - s.LastApplied
	}
	return s
}

// WaitSeq blocks until the follower has fully applied batch seq (and
// its containing snapshot is published, since appliers block on
// publication), or the timeout elapses.
func (f *Follower) WaitSeq(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		applied, closed := f.stats.LastApplied, f.closed
		f.mu.Unlock()
		if applied >= seq {
			return nil
		}
		if closed {
			return errors.New("feed: follower closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("feed: batch %d not applied within %s (at %d)", seq, timeout, applied)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// BreakConn severs the current collector connection (if any), forcing
// a reconnect. Chaos tests use it as a deterministic link cut.
func (f *Follower) BreakConn() {
	f.mu.Lock()
	nc := f.conn
	f.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// Close stops the replication loop and waits for it to exit. The
// applier is left at the last applied state (and is the caller's to
// close).
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return nil
	}
	f.closed = true
	nc := f.conn
	f.mu.Unlock()
	close(f.stop)
	if nc != nil {
		nc.Close()
	}
	<-f.done
	f.mu.Lock()
	f.state = "closed"
	f.mu.Unlock()
	return nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

func (f *Follower) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// sleep waits d or until Close, whichever first.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stop:
		return false
	}
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.BackoffMin
	first := true
	for {
		if f.isClosed() {
			return
		}
		if !first {
			if !f.sleep(backoff) {
				return
			}
		}
		first = false
		f.setState("connecting")
		nc, err := f.cfg.Dial()
		if err != nil {
			backoff = min(backoff*2, f.cfg.BackoffMax)
			continue
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			nc.Close()
			return
		}
		f.conn = nc
		f.mu.Unlock()
		progressed := f.session(nc)
		nc.Close()
		f.mu.Lock()
		f.conn = nil
		closed := f.closed
		if !closed {
			f.stats.Reconnects++
		}
		f.mu.Unlock()
		if closed {
			return
		}
		if progressed {
			backoff = f.cfg.BackoffMin
		} else {
			backoff = min(backoff*2, f.cfg.BackoffMax)
		}
	}
}

func (f *Follower) setState(s string) {
	f.mu.Lock()
	if !f.closed {
		f.state = s
	}
	f.mu.Unlock()
}

// session runs one connection: hello, then apply frames until error or
// stream end. It reports whether any frame was applied (for backoff
// reset).
func (f *Follower) session(nc net.Conn) (progressed bool) {
	f.mu.Lock()
	hello := Hello{Version: Version, HasState: f.hasState && !f.forceSnapshot}
	lastApplied := f.stats.LastApplied
	f.mu.Unlock()
	if err := WriteFrame(nc, Frame{Type: FrameHello, Seq: lastApplied, Payload: encodeHello(hello)}); err != nil {
		return false
	}
	f.setState("syncing")
	resumeCandidate := hello.HasState
	ackDue := 0
	for {
		fr, err := ReadFrame(nc)
		if err != nil {
			return progressed
		}
		switch fr.Type {
		case FrameSnapshot:
			routes, err := decodeSnapshot(fr.Payload)
			if err != nil {
				f.logf("feed: %v", err)
				return progressed
			}
			if err := f.cfg.Applier.Reset(routes); err != nil {
				f.logf("feed: snapshot reset: %v", err)
				return progressed
			}
			f.mu.Lock()
			f.stats.LastApplied = fr.Seq
			if fr.Seq > f.stats.Head {
				f.stats.Head = fr.Seq
			}
			f.stats.SnapshotLoads++
			f.hasState = true
			f.forceSnapshot = false
			f.mu.Unlock()
			resumeCandidate = false
			progressed = true
			f.setState("streaming")
			if err := WriteFrame(nc, Frame{Type: FrameAck, Seq: fr.Seq}); err != nil {
				return progressed
			}
			ackDue = 0
		case FrameUpdates:
			b, err := decodeBatch(fr.Payload)
			if err != nil {
				f.logf("feed: %v", err)
				return progressed
			}
			f.mu.Lock()
			applied := f.stats.LastApplied
			if b.Head > f.stats.Head {
				f.stats.Head = b.Head
			}
			f.mu.Unlock()
			if fr.Seq <= applied {
				continue // replay overlap; already applied
			}
			if fr.Seq != applied+1 {
				f.logf("feed: batch gap: have %d, got %d", applied, fr.Seq)
				return progressed
			}
			if resumeCandidate {
				f.mu.Lock()
				f.stats.Resumes++
				f.mu.Unlock()
				resumeCandidate = false
			}
			if err := f.cfg.Applier.Apply(b.Records); err != nil {
				f.logf("feed: apply batch %d: %v", fr.Seq, err)
				return progressed
			}
			f.mu.Lock()
			f.stats.LastApplied = fr.Seq
			f.stats.Batches++
			f.stats.Records += uint64(len(b.Records))
			f.mu.Unlock()
			progressed = true
			f.setState("streaming")
			ackDue++
			if ackDue >= f.cfg.AckEvery {
				if err := WriteFrame(nc, Frame{Type: FrameAck, Seq: fr.Seq}); err != nil {
					return progressed
				}
				ackDue = 0
			}
		case FrameHash:
			h, err := decodeHash(fr.Payload)
			if err != nil {
				f.logf("feed: %v", err)
				return progressed
			}
			f.mu.Lock()
			applied := f.stats.LastApplied
			f.mu.Unlock()
			if fr.Seq != applied {
				continue // covers a state we skipped past; nothing to compare
			}
			got := f.cfg.Applier.CanonicalHash()
			f.mu.Lock()
			f.stats.HashChecks++
			mismatch := got != h.Hash
			if mismatch {
				f.stats.HashMismatches++
				f.forceSnapshot = true
			}
			f.mu.Unlock()
			if mismatch {
				f.logf("feed: canonical hash mismatch at batch %d: have %016x, want %016x over %d routes — resynchronising",
					fr.Seq, got, h.Hash, h.Routes)
				return progressed
			}
			if resumeCandidate {
				f.mu.Lock()
				f.stats.Resumes++
				f.mu.Unlock()
				resumeCandidate = false
			}
		case FrameBye:
			return progressed
		default:
			f.logf("feed: unexpected frame type 0x%02x", fr.Type)
			return progressed
		}
	}
}
