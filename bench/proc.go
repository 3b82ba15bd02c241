package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// rssSampleInterval is how often a child's resident set is read. A
// matchquality invocation lives some 30 ms and its resident set is flat after
// the first one or two readings.
const rssSampleInterval = 4 * time.Millisecond

// opTimeout bounds every single operation (one HTTP request, one subprocess,
// one job poll loop); an op that exceeds it fails and counts as missing.
const opTimeout = 60 * time.Second

// workers is sweepd's -workers: min(2, nproc). The load generator itself is
// one closed-loop client on one connection.
func workers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// env is what a workload run needs from its surroundings: where the built
// programs are, where scratch files go, and the children it has started.
type env struct {
	binDir  string // holds sweepd and matchquality
	workDir string // temp cachedirs are created (and removed) under it

	mu       sync.Mutex
	children map[*exec.Cmd]struct{}
	tempDirs []string
	rss      sample // MiB, every reading of a child since takeRSSMiB
}

func newEnv(binDir, workDir string) *env {
	return &env{binDir: binDir, workDir: workDir, children: map[*exec.Cmd]struct{}{}}
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// start launches a child and registers it so killAll reaches it on every
// exit path. Children run in their own process group: the harness, not the
// terminal, decides when they die.
func (e *env) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	e.mu.Lock()
	e.children[cmd] = struct{}{}
	e.mu.Unlock()
	return nil
}

// reap waits for a started child. It is the only place a child is waited
// for.
func (e *env) reap(cmd *exec.Cmd) error {
	err := cmd.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.children, cmd)
	return err
}

// sampleRSS reads a live child's resident set (VmRSS in /proc/<pid>/status).
// The metric is the median of the readings, not the peak: the peak (VmHWM) of
// a sweepd is a short spike of uncollected garbage whose height depends on
// when the collector happens to run, and over ten runs of service_mixed it
// spread by 22-25 %, as much as the bound. (The Maxrss that Wait reports is no
// use either: on Linux it starts at what the parent had resident when the
// child was exec'd, 12 MiB for a matchquality that uses 6.)
func (e *env) sampleRSS(cmd *exec.Cmd) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid))
	if err != nil {
		return // already gone
	}
	_, rest, _ := bytes.Cut(status, []byte("VmRSS:"))
	var kib int64
	if _, err := fmt.Sscan(string(rest), &kib); err != nil { // "   1856 kB"
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rss = append(e.rss, float64(kib)/1024)
}

// killAll kills and reaps every child still registered.
func (e *env) killAll() {
	e.mu.Lock()
	var left []*exec.Cmd
	for c := range e.children {
		left = append(left, c)
	}
	e.mu.Unlock()
	for _, c := range left {
		_ = c.Process.Kill() // already-exited children are reaped below
		_ = e.reap(c)
	}
}

// takeRSSMiB returns the median resident set over the readings taken since
// the last call, so that each workload of a run reports its own.
func (e *env) takeRSSMiB() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	rss := e.rss
	e.rss = nil
	return rss.median()
}

// discardRSS forgets the readings so far. Workloads call it once their
// set-up repeats have ended: the metric is about the children that serve
// timed operations.
func (e *env) discardRSS() { e.takeRSSMiB() }

// tempDir creates a scratch directory under workDir. Callers remove it when
// done with it; cleanup removes whatever an early exit left behind.
func (e *env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.workDir, pattern)
	if err == nil {
		e.mu.Lock()
		e.tempDirs = append(e.tempDirs, dir)
		e.mu.Unlock()
	}
	return dir, err
}

// cleanup runs on every exit path: no child survives the harness and no
// cachedir is left on disk.
func (e *env) cleanup() {
	e.killAll()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.tempDirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
	e.tempDirs = nil
}

// run executes a subprocess to completion under opTimeout and returns its
// standard output and wall time. While it runs its resident set is sampled
// every few milliseconds: there is no reading it once the child has exited.
func (e *env) run(name string, args ...string) (stdout []byte, wall time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.Command(e.bin(name), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	if err := e.start(cmd); err != nil {
		return nil, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- e.reap(cmd) }()
	tick := time.NewTicker(rssSampleInterval)
	defer tick.Stop()
	for running := true; running; {
		select {
		case err = <-done:
			running = false
		case <-tick.C:
			e.sampleRSS(cmd)
		case <-ctx.Done():
			_ = cmd.Process.Kill()
			<-done
			err = fmt.Errorf("%s: timed out after %s", name, opTimeout)
			running = false
		}
	}
	wall = time.Since(t0)
	if err != nil {
		return out.Bytes(), wall, fmt.Errorf("%s %v: %w: %s", name, args, err, bytes.TrimSpace(errb.Bytes()))
	}
	return out.Bytes(), wall, nil
}

// server is one running sweepd.
type server struct {
	e    *env
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	hc   *http.Client
	// startS is process start + health wait, the part of set-up every
	// workload pays.
	startS  float64
	stopped bool
	rssAt   time.Time // of the last resident-set reading
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before sweepd binds it, so a collision is possible in principle;
// startServer retries on it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches sweepd with only the flags the benchmark is allowed
// to depend on (-addr -cachedir -workers -cache-entries) and waits for
// /healthz.
func (e *env) startServer(cacheDir string, cacheEntries int) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-workers", fmt.Sprint(workers())}
		if cacheDir != "" {
			args = append(args, "-cachedir", cacheDir)
		}
		if cacheEntries > 0 {
			args = append(args, "-cache-entries", fmt.Sprint(cacheEntries))
		}
		cmd := exec.Command(e.bin("sweepd"), args...)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		t0 := time.Now()
		if err := e.start(cmd); err != nil {
			return nil, err
		}
		s := &server{e: e, cmd: cmd, base: "http://" + addr, hc: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
			},
		}}
		if lastErr = s.waitHealthy(); lastErr == nil {
			s.startS = time.Since(t0).Seconds()
			return s, nil
		}
		s.stop()
	}
	return nil, fmt.Errorf("sweepd did not become healthy: %w", lastErr)
}

func (s *server) waitHealthy() error {
	deadline := time.Now().Add(5 * time.Second)
	err := errors.New("timed out")
	for time.Now().Before(deadline) {
		var code int
		if code, _, err = s.get("/healthz"); err == nil {
			if code == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: status %d", code)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return err
}

// stop kills sweepd (it has no graceful shutdown; SIGKILL is also what makes
// the restart in search_jobs a real crash-restart) and reaps it.
func (s *server) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Kill()
	_ = s.e.reap(s.cmd)
}

// post sends one JSON body and returns status and the whole response body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.hc.Post(s.base+path, "application/json", bytes.NewReader(body))
	return s.finish(resp, err)
}

func (s *server) get(path string) (int, []byte, error) {
	resp, err := s.hc.Get(s.base + path)
	return s.finish(resp, err)
}

// finish reads a response to its end and, every rssSampleInterval, the
// server's resident set (some 20 us, inside whatever operation is being
// timed: half a per cent of its time).
func (s *server) finish(resp *http.Response, err error) (int, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if time.Since(s.rssAt) >= rssSampleInterval {
		s.e.sampleRSS(s.cmd)
		s.rssAt = time.Now()
	}
	return resp.StatusCode, b, err
}
