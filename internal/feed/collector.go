package feed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/trie"
)

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	// BaseRoutes is the initial FIB. A restarted collector passes the
	// previous instance's Routes() here so followers that kept up can
	// resume without a snapshot.
	BaseRoutes []ip.Route
	// StartSeq is the batch number the stream starts after: the first
	// Apply is batch StartSeq+1. A restarted collector passes the
	// previous instance's Head().
	StartSeq uint64
	// Window is how many applied batches stay replayable. A follower
	// whose resume point has been trimmed past gets a fresh snapshot
	// instead. Default 64.
	Window int
	// HashEvery emits a canonical-table hash frame after every N
	// batches (and after every snapshot). Default 16; negative
	// disables periodic hashes.
	HashEvery int
	// HelloTimeout bounds how long an accepted connection may take to
	// present its hello frame. Default 5s.
	HelloTimeout time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.HashEvery == 0 {
		c.HashEvery = 16
	}
	if c.HelloTimeout == 0 {
		c.HelloTimeout = 5 * time.Second
	}
	return c
}

// CollectorStats is a point-in-time snapshot of collector progress.
type CollectorStats struct {
	Head      uint64 `json:"head"`
	LogStart  uint64 `json:"log_start"`
	Routes    int    `json:"routes"`
	Followers int    `json:"followers"`
	Batches   uint64 `json:"batches"`
	Records   uint64 `json:"records"`
	Snapshots uint64 `json:"snapshots_sent"`
	Resumes   uint64 `json:"resumes"`
}

// logEntry is one replayable batch; hash is non-nil when a hash frame
// follows the batch on the wire.
type logEntry struct {
	seq     uint64
	records []ribio.UpdateRecord
	hash    *HashInfo
}

// Collector owns the authoritative route table and streams its update
// batches to follower replicas. One goroutine pair per follower (a
// sender replaying the log, a reader consuming acks); Apply is safe
// from any goroutine but batches are ordered by its internal lock.
type Collector struct {
	cfg CollectorConfig

	mu   sync.Mutex
	cond *sync.Cond // broadcast: head advanced, conn set changed, closed
	// mirror is the authoritative FIB and its canonical compression, kept
	// in lockstep so the hash frames read an O(1) digest.
	mirror    *onrtc.Updater
	head      uint64
	logStart  uint64 // seq of oldest retained entry; head+1 when log empty
	log       []logEntry
	sinceHash int
	conns     map[*collConn]struct{}
	closed    bool

	batches   uint64
	records   uint64
	snapshots uint64
	resumes   uint64

	ln net.Listener
	wg sync.WaitGroup
}

type collConn struct {
	nc    net.Conn
	acked uint64
	gone  bool
}

// NewCollector builds a collector over cfg.BaseRoutes. Call Listen to
// accept followers, Apply to advance the stream, Close to stop.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:      cfg,
		mirror:   onrtc.BuildUpdater(trie.FromRoutes(cfg.BaseRoutes)),
		head:     cfg.StartSeq,
		logStart: cfg.StartSeq + 1,
		conns:    make(map[*collConn]struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// Apply validates and applies one batch of updates to the mirror,
// appends it to the replay log and wakes the per-follower senders. It
// returns the batch's sequence number. Empty batches are rejected —
// they would advance sequence numbers without observable effect — and
// so is any batch holding a record the followers' decoder would refuse
// (the same ribio.UpdateRecord.Validate check), before the mirror is
// touched: a logged batch no follower can decode would wedge every
// follower on it until the window trimmed it.
func (c *Collector) Apply(recs []ribio.UpdateRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, errors.New("feed: empty batch")
	}
	for i, u := range recs {
		if err := u.Validate(); err != nil {
			return 0, fmt.Errorf("feed: batch record %d: %w", i, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("feed: collector closed")
	}
	for _, u := range recs {
		if u.Withdraw {
			c.mirror.Withdraw(u.Prefix)
		} else {
			c.mirror.Announce(u.Prefix, u.NextHop)
		}
	}
	c.head++
	e := logEntry{seq: c.head, records: recs}
	c.sinceHash++
	if c.cfg.HashEvery > 0 && c.sinceHash >= c.cfg.HashEvery {
		c.sinceHash = 0
		h := c.canonicalHashLocked()
		e.hash = &h
	}
	c.log = append(c.log, e)
	if drop := len(c.log) - c.cfg.Window; drop > 0 {
		c.log = append([]logEntry(nil), c.log[drop:]...)
		c.logStart += uint64(drop)
	}
	c.batches++
	c.records += uint64(len(recs))
	c.cond.Broadcast()
	return c.head, nil
}

// canonicalHashLocked reads the digest of the mirror's canonical
// compression — the same table every converged follower's snapshot
// holds — in O(1).
func (c *Collector) canonicalHashLocked() HashInfo {
	t := c.mirror.Table()
	return HashInfo{Routes: uint32(t.Len()), Hash: t.Digest()}
}

// Head returns the sequence number of the last applied batch.
func (c *Collector) Head() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head
}

// Routes returns the mirror FIB (for handing off to a successor
// collector together with Head).
func (c *Collector) Routes() []ip.Route {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mirror.FIB().Routes()
}

// Stats returns a snapshot of collector progress.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{
		Head:      c.head,
		LogStart:  c.logStart,
		Routes:    c.mirror.FIB().Len(),
		Followers: len(c.conns),
		Batches:   c.batches,
		Records:   c.records,
		Snapshots: c.snapshots,
		Resumes:   c.resumes,
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") and accepts followers until
// Close. It returns the bound address so tests can listen on port 0.
func (c *Collector) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return nil, errors.New("feed: collector closed")
	}
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveConn(nc)
			}()
		}
	}()
	return ln.Addr(), nil
}

// Addr returns the listening address, or nil before Listen.
func (c *Collector) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// WaitAcked blocks until at least n connected followers have acked
// batch seq, or the timeout elapses.
func (c *Collector) WaitAcked(n int, seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		count := 0
		for cc := range c.conns {
			if cc.acked >= seq {
				count++
			}
		}
		if count >= n {
			return nil
		}
		if c.closed {
			return errors.New("feed: collector closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("feed: %d/%d followers acked seq %d within %s", count, n, seq, timeout)
		}
		c.mu.Unlock()
		time.Sleep(500 * time.Microsecond)
		c.mu.Lock()
	}
}

// Close stops accepting, drops every follower connection and unblocks
// senders. Applied state (mirror, head) stays readable for handoff.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	for cc := range c.conns {
		cc.nc.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	c.wg.Wait()
	return nil
}

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// serveConn runs one follower session: handshake, then a sender loop
// feeding snapshots/batches/hashes and a reader loop consuming acks.
func (c *Collector) serveConn(nc net.Conn) {
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(c.cfg.HelloTimeout))
	f, err := ReadFrame(nc)
	if err != nil {
		c.logf("feed: %s: handshake read: %v", nc.RemoteAddr(), err)
		return
	}
	if f.Type != FrameHello {
		c.logf("feed: %s: expected hello, got frame type 0x%02x", nc.RemoteAddr(), f.Type)
		return
	}
	hello, err := decodeHello(f.Payload)
	if err != nil {
		c.logf("feed: %s: %v", nc.RemoteAddr(), err)
		return
	}
	nc.SetReadDeadline(time.Time{})

	cc := &collConn{nc: nc, acked: f.Seq}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.conns[cc] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		cc.gone = true
		delete(c.conns, cc)
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	// Reader: acks advance cc.acked; any read error marks the conn
	// gone and wakes the sender out of its cond wait.
	readErr := make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(readErr)
		defer func() {
			c.mu.Lock()
			cc.gone = true
			c.cond.Broadcast()
			c.mu.Unlock()
		}()
		for {
			af, err := ReadFrame(nc)
			if err != nil {
				return
			}
			if af.Type != FrameAck {
				return
			}
			c.mu.Lock()
			if af.Seq > cc.acked {
				cc.acked = af.Seq
			}
			c.mu.Unlock()
		}
	}()
	defer func() {
		nc.Close()
		<-readErr
	}()

	c.sendLoop(cc, hello.HasState, f.Seq)
}

// sendLoop streams to one follower until the connection dies or the
// collector closes. next is the first batch seq still owed; when it
// falls behind the replay window (or the follower has no usable
// state) the follower gets a fresh snapshot instead.
func (c *Collector) sendLoop(cc *collConn, hasState bool, lastApplied uint64) {
	c.mu.Lock()
	next := lastApplied + 1
	resume := hasState && lastApplied <= c.head && next >= c.logStart
	if resume {
		c.resumes++
		c.logf("feed: %s: resuming from batch %d (head %d)", cc.nc.RemoteAddr(), next, c.head)
	}
	c.mu.Unlock()
	if !resume {
		var ok bool
		next, ok = c.sendSnapshot(cc)
		if !ok {
			return
		}
	}
	for {
		c.mu.Lock()
		for !c.closed && !cc.gone && c.head < next {
			c.cond.Wait()
		}
		if c.closed || cc.gone {
			closed := c.closed
			c.mu.Unlock()
			if closed {
				WriteFrame(cc.nc, Frame{Type: FrameBye}) // best effort
			}
			return
		}
		if next < c.logStart {
			// Trimmed past this follower's position (it stalled longer
			// than the window): replay is impossible, start over.
			logStart := c.logStart
			c.mu.Unlock()
			c.logf("feed: %s: batch %d trimmed (log starts at %d), re-snapshotting", cc.nc.RemoteAddr(), next, logStart)
			var ok bool
			next, ok = c.sendSnapshot(cc)
			if !ok {
				return
			}
			continue
		}
		e := c.log[next-c.logStart]
		head := c.head
		c.mu.Unlock()
		if err := WriteFrame(cc.nc, Frame{Type: FrameUpdates, Seq: e.seq, Payload: encodeBatch(Batch{Head: head, Records: e.records})}); err != nil {
			return
		}
		if e.hash != nil {
			if err := WriteFrame(cc.nc, Frame{Type: FrameHash, Seq: e.seq, Payload: encodeHash(*e.hash)}); err != nil {
				return
			}
		}
		next = e.seq + 1
	}
}

// sendSnapshot ships the full mirror plus a covering hash frame and
// returns the next batch seq owed after it.
func (c *Collector) sendSnapshot(cc *collConn) (next uint64, ok bool) {
	c.mu.Lock()
	routes := c.mirror.FIB().Routes()
	seq := c.head
	h := c.canonicalHashLocked()
	c.snapshots++
	c.mu.Unlock()
	c.logf("feed: %s: sending snapshot of %d routes at batch %d", cc.nc.RemoteAddr(), len(routes), seq)
	if err := WriteFrame(cc.nc, Frame{Type: FrameSnapshot, Seq: seq, Payload: encodeSnapshot(routes)}); err != nil {
		return 0, false
	}
	if err := WriteFrame(cc.nc, Frame{Type: FrameHash, Seq: seq, Payload: encodeHash(h)}); err != nil {
		return 0, false
	}
	return seq + 1, true
}
