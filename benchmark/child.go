package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServe compiles cmd/clue-serve once into dir and returns the
// binary's path. The child is always exec'd from this file, never through
// `go run`, whose wrapper process would orphan the real server when
// killed.
func buildServe(ctx context.Context, repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "clue-serve")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs, "./cmd/clue-serve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/clue-serve in %s: %v\n%s", repoRoot, err, out)
	}
	return abs, nil
}

// findRepoRoot walks up from the working directory to the directory
// whose go.mod declares module clue.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module clue" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("clue module root (go.mod with `module clue`) not found above the working directory")
		}
		dir = parent
	}
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// child is one exec'd clue-serve. Its lifetime is owned by a dedicated
// goroutine locked to its OS thread: Pdeathsig is delivered when the
// *thread* that forked the child exits, so the forking thread must live
// exactly as long as the child may.
type child struct {
	pid  int
	addr string // host:port parsed from the "listening on" line

	stop     context.CancelFunc
	done     chan struct{} // closed once Wait has returned
	waitErr  error
	stderr   *tailBuffer
	stopOnce sync.Once
}

// startChild execs bin with args in its own process group and waits for
// its "listening on" line. The child dies with the harness (Pdeathsig),
// gets SIGTERM on stop, and SIGKILL to its whole group 5 s later.
func startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	cctx, cancel := context.WithCancel(ctx)
	c := &child{stop: cancel, done: make(chan struct{}), stderr: &tailBuffer{max: 4096}}
	cmd := exec.CommandContext(cctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	cmd.Stderr = c.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}

	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with this goroutine, after the child
		defer close(c.done)
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		c.pid = cmd.Process.Pid
		started <- nil
		c.waitErr = cmd.Wait()
		// Sweep the group: clue-serve forks nothing, but a future server
		// might, and a straggler is exactly what this harness must not leave.
		_ = syscall.Kill(-c.pid, syscall.SIGKILL)
	}()
	if err := <-started; err != nil {
		cancel()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrCh <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			c.shutdown()
			return nil, fmt.Errorf("%s exited before listening: %v\n%s", bin, c.waitErr, c.stderr.String())
		}
		c.addr = addr
		return c, nil
	case <-time.After(120 * time.Second):
		c.shutdown()
		return nil, fmt.Errorf("%s did not print its listening address within 120s\n%s", bin, c.stderr.String())
	case <-ctx.Done():
		c.shutdown()
		return nil, ctx.Err()
	}
}

// shutdown stops the child (SIGTERM, then SIGKILL after WaitDelay), waits
// for it to be reaped and verifies with kill(pid, 0) that it is gone.
func (c *child) shutdown() error {
	c.stopOnce.Do(c.stop)
	<-c.done
	if err := syscall.Kill(c.pid, 0); !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("child pid %d still present after wait (kill(pid,0): %v)", c.pid, err)
	}
	return nil
}

// alive reports whether the child has not been reaped yet.
func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// tailBuffer keeps the last max bytes written to it (a child's stderr,
// for error reports).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// procCPUSeconds returns user+system CPU seconds consumed so far by pid,
// from /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds returns this process's user+system CPU seconds.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns pid's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// size, so that a workload run after others in the same process reports
// its own high-water mark. Best effort: a kernel that refuses leaves the
// mark where it was.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
