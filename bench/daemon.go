package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one crowdd process the benchmark spawned.
type daemon struct {
	url  string
	dir  string
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan struct{} // closed once the process has exited
}

// syncBuffer collects a child's output from its copying goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freeAddr reserves a loopback port by binding and releasing it. Cluster
// nodes need every peer's URL before any of them starts, so the port is
// chosen here rather than by the daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches crowdd on addr with data directory dir plus extra
// flags, and returns once GET /healthz answers 200: the set-up time, from
// exec to ready, recovery included. The caller must kill the daemon.
func (e *runEnv) startDaemon(addr, dir string, extra ...string) (*daemon, time.Duration, error) {
	args := append([]string{"-addr", addr, "-data-dir", dir}, extra...)
	d := &daemon{
		url:  "http://" + addr,
		dir:  dir,
		cmd:  exec.Command(e.crowdd, args...),
		out:  &syncBuffer{},
		done: make(chan struct{}),
	}
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	// Should the driver itself be killed, its daemons die with it rather
	// than linger and load the next run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start crowdd: %w", err)
	}
	e.daemons = append(e.daemons, d)
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("crowdd exited before ready: %s", d.out.String())
		default:
		}
		if time.Now().After(deadline) || e.ctx.Err() != nil {
			d.kill()
			return nil, 0, fmt.Errorf("crowdd not ready (%v): %s", e.ctx.Err(), d.out.String())
		}
		// Poll finely: a start takes a few milliseconds.
		sleepUntil(e.ctx, time.Now().Add(200*time.Microsecond))
	}
}

// waitOutput returns the first match of re in the daemon's output,
// waiting up to timeout for it, or nil. The output reaches the buffer
// through a pipe that another goroutine copies, so a line the daemon
// wrote before /healthz answered may not be there yet.
func (d *daemon) waitOutput(ctx context.Context, re *regexp.Regexp, timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindStringSubmatch(d.out.String()); m != nil {
			return m
		}
		if time.Now().After(deadline) || !sleepUntil(ctx, time.Now().Add(time.Millisecond)) {
			return nil
		}
	}
}

// kill ends the daemon with SIGKILL — a crash, as far as its data
// directory is concerned — and waits for the process to exit.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// cpu reads the daemon's CPU time: the on-CPU nanoseconds of each of its
// threads from /proc/<pid>/task/*/schedstat. Unlike utime and stime,
// which count 10 ms ticks, these resolve a short phase's few hundred
// milliseconds of work. The Go runtime parks idle threads rather than
// ending them, so no thread's time leaves the sum.
func (d *daemon) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", d.cmd.Process.Pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// waitIdle returns once the daemon spends under 5% of one CPU over a
// 100 ms window (an idle crowdd spends about 1%, on its tickers), so that
// a measurement does not start while work left from an earlier phase — a
// bins recompute, a snapshot, a garbage collection — still runs beside
// it.
func (e *runEnv) waitIdle(d *daemon) error {
	const window = 100 * time.Millisecond
	deadline := time.Now().Add(30 * time.Second)
	for {
		c0, err := d.cpu()
		if err != nil {
			return err
		}
		sleepUntil(e.ctx, time.Now().Add(window))
		c1, err := d.cpu()
		if err != nil {
			return err
		}
		if c1-c0 < window/20 {
			return nil
		}
		if time.Now().After(deadline) || e.ctx.Err() != nil {
			return fmt.Errorf("crowdd still busy: %v of CPU in the last %v", c1-c0, window)
		}
	}
}

// peakRSS reads the daemon's resident-set high-water mark (VmHWM), MB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", d.cmd.Process.Pid)
}

// counters scrapes the daemon's unlabelled /metrics series.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	body, err := get(ctx, http.DefaultClient, d.url+"/metrics", http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[strings.TrimPrefix(name, "crowdd_")] = v
	}
	return out, nil
}

// get fetches url and returns its body, failing unless the status is
// want.
func get(ctx context.Context, client *http.Client, url string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return body, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
