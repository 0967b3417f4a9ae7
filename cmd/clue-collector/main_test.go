package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// mirrorApplier is a minimal feed.Applier over a plain trie, with the
// canonical view the hash frames are computed against.
type mirrorApplier struct {
	mu  sync.Mutex
	fib *trie.Trie
}

func (a *mirrorApplier) Reset(routes []ip.Route) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fib = trie.FromRoutes(routes)
	return nil
}

func (a *mirrorApplier) Apply(recs []ribio.UpdateRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, u := range recs {
		if u.Withdraw {
			a.fib.Delete(u.Prefix, nil)
		} else {
			a.fib.Insert(u.Prefix, u.NextHop, nil)
		}
	}
	return nil
}

func (a *mirrorApplier) CanonicalHash() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return onrtc.Compress(a.fib).Digest()
}

func (a *mirrorApplier) routes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fib.Len()
}

// startRun launches run() against an ephemeral port and returns the
// bound address plus a done channel with the final error.
func startRun(t *testing.T, ctx context.Context, args []string, out, errw *bytes.Buffer) (net.Addr, <-chan error) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, out, errw, func(a net.Addr) { ready <- a })
	}()
	select {
	case a := <-ready:
		return a, done
	case err := <-done:
		t.Fatalf("run exited before listening: %v\nstderr: %s", err, errw.String())
	case <-time.After(10 * time.Second):
		t.Fatal("collector never reported ready")
	}
	return nil, nil
}

func dialFollower(t *testing.T, addr net.Addr) (*feed.Follower, *mirrorApplier) {
	t.Helper()
	app := &mirrorApplier{}
	fl, err := feed.NewFollower(feed.FollowerConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr.String(), time.Second)
		},
		Applier: app,
	})
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl, app
}

func TestRunStreamsGeneratedTrace(t *testing.T) {
	var out, errw bytes.Buffer
	addr, done := startRun(t, context.Background(), []string{
		"-addr", "127.0.0.1:0", "-routes", "400", "-seed", "11",
		"-updates", "120", "-batch", "6", "-interval", "0",
		"-wait-followers", "1", "-v",
	}, &out, &errw)

	fl, app := dialFollower(t, addr)
	if err := <-done; err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	st := fl.Stats()
	if st.LastApplied != 20 { // 120 updates / batch 6
		t.Fatalf("follower applied to %d, want 20\nstderr: %s", st.LastApplied, errw.String())
	}
	if st.HashMismatches != 0 {
		t.Fatalf("hash mismatches: %d", st.HashMismatches)
	}
	if st.HashChecks == 0 {
		t.Fatal("no hash frames verified")
	}
	if app.routes() == 0 {
		t.Fatal("follower table empty after stream")
	}
	if !strings.Contains(out.String(), "streamed 20 batches") {
		t.Fatalf("unexpected summary: %q", out.String())
	}
}

func TestRunReplaysTraceFileOverFIBFile(t *testing.T) {
	dir := t.TempDir()
	fib, err := fibgen.Generate(fibgen.Config{Seed: 3, Routes: 300})
	if err != nil {
		t.Fatal(err)
	}
	fibPath := filepath.Join(dir, "table.rib")
	var fw bytes.Buffer
	if err := ribio.Write(&fw, fib.Routes()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fibPath, fw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "updates.txt")
	var tw bytes.Buffer
	if _, err := tracegen.GenerateUpdateTrace(&tw, fib, tracegen.UpdateConfig{Seed: 3, Messages: 40}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, tw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw bytes.Buffer
	addr, done := startRun(t, context.Background(), []string{
		"-addr", "127.0.0.1:0", "-fib", fibPath, "-trace", tracePath,
		"-batch", "5", "-interval", "0", "-wait-followers", "1",
	}, &out, &errw)
	fl, _ := dialFollower(t, addr)
	if err := <-done; err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if st := fl.Stats(); st.LastApplied != 8 { // 40 updates / batch 5
		t.Fatalf("follower applied to %d, want 8", st.LastApplied)
	}
	if !strings.Contains(out.String(), "trace "+tracePath) || !strings.Contains(out.String(), "fib "+fibPath) {
		t.Fatalf("summary does not name the input files: %q", out.String())
	}
}

func TestRunLingerStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errw bytes.Buffer
	addr, done := startRun(t, ctx, []string{
		"-addr", "127.0.0.1:0", "-routes", "200", "-updates", "10",
		"-batch", "5", "-interval", "0", "-linger",
	}, &out, &errw)

	// A follower connecting after the stream ended must still bootstrap
	// from the final table.
	fl, app := dialFollower(t, addr)
	if err := fl.WaitSeq(2, 10*time.Second); err != nil {
		t.Fatalf("late follower never caught up: %v", err)
	}
	if app.routes() == 0 {
		t.Fatal("late follower table empty")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("linger did not stop on cancel")
	}
	if !strings.Contains(out.String(), "lingering") {
		t.Fatalf("missing linger notice: %q", out.String())
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := [][]string{
		{"-batch", "0"},
		{"-updates", "not-a-number"},
		{"-fib", "/nonexistent/table.rib"},
		{"-trace", "/nonexistent/updates.txt"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if err := run(context.Background(), args, &out, &errw, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
