package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/testkit"
	"accubench/internal/units"
)

// startDaemon boots the real daemon — run(), exactly what main() calls —
// on a random port and returns its base URL, the captured stdout, and a
// shutdown func that triggers the signal path and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (base string, out *lockedBuffer, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &lockedBuffer{}
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { errc <- run(ctx, args, out, func(addr string) { addrc <- addr }) }()
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	var once sync.Once
	var exitErr error
	shutdown = func() error {
		once.Do(func() {
			cancel()
			select {
			case exitErr = <-errc:
			case <-time.After(15 * time.Second):
				exitErr = fmt.Errorf("daemon did not exit after shutdown")
			}
		})
		return exitErr
	}
	t.Cleanup(func() { shutdown() })
	return base, out, shutdown
}

// lockedBuffer makes the daemon's stdout safe to read while it still
// writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func post(t *testing.T, url string, raw []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func metrics(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		// Comment lines and float-valued series (histogram sums,
		// quantiles) are skipped; the counters stay a flat map.
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue
		}
		out[name] = n
	}
	return out
}

// waitForCounter polls /metrics until the named counter reaches want —
// uploads are processed asynchronously behind the 202 — and returns a
// scrape only once the next one repeats every counter of the pipeline's
// flow. One scrape reads the counters one after another, so it can
// catch a store worker between two increments and tear a conservation
// law that holds at rest.
func waitForCounter(t *testing.T, base, name string, want uint64) map[string]uint64 {
	t.Helper()
	flow := []string{
		"crowdd_received_total", "crowdd_decoded_total", "crowdd_evaluated_total",
		"crowdd_decode_errors_total", "crowdd_estimate_failures_total",
		"crowdd_aborted_total", "crowdd_stored_total", "crowdd_accepted_total",
		"crowdd_rejected_total", "crowdd_wal_appended_total", "crowdd_wal_failed_total",
		"crowdd_store_records", "crowdd_store_accepted_records",
	}
	deadline := time.Now().Add(10 * time.Second)
	var prev map[string]uint64
	for {
		m := metrics(t, base)
		if m[name] >= want && prev != nil {
			stable := true
			for _, k := range flow {
				stable = stable && m[k] == prev[k]
			}
			if stable {
				return m
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s at %d, want %d with two agreeing scrapes", name, m[name], want)
		}
		prev = m
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonEndToEnd boots crowdd on a random port and exercises every
// HTTP endpoint through a real TCP connection: healthz, submissions
// (accepted, rejected, malformed, oversized), device verdicts (hit and
// 404), bins (all models, one model, unknown-model 404), metrics
// conservation, and the graceful signal-drain path.
func TestDaemonEndToEnd(t *testing.T) {
	base, out, shutdown := startDaemon(t, "-max-body", "4096")
	policy := crowd.DefaultPolicy()

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("GET /healthz = %d %q", code, body)
	}

	// Accepted population: two decorrelated score groups across the window.
	var accepted uint64
	for i := 0; i < 10; i++ {
		score := 1000.0
		if i%2 == 1 {
			score = 1600
		}
		score += float64(i)
		ambient := units.Celsius(21 + 0.8*float64(i))
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("dev-%02d", i), score, ambient)
		if code, body := post(t, base+"/v1/submissions", raw); code != http.StatusAccepted {
			t.Fatalf("POST accepted payload %d = %d %q", i, code, body)
		}
		accepted++
	}
	// One filtered-out device.
	if code, _ := post(t, base+"/v1/submissions", testkit.RejectedPayload(t, policy, "dev-hot", 900)); code != http.StatusAccepted {
		t.Fatalf("POST rejected-by-policy payload = %d, want 202 (filtering is async)", code)
	}
	// Malformed corpus: 202 at the HTTP layer, decode errors in metrics.
	for i, raw := range testkit.MalformedPayloads() {
		if code, body := post(t, base+"/v1/submissions", raw); code != http.StatusAccepted {
			t.Fatalf("POST malformed %d = %d %q", i, code, body)
		}
	}
	// Error path with a synchronous status: a body over -max-body is 413.
	huge := bytes.Repeat([]byte("x"), 8192)
	if code, _ := post(t, base+"/v1/submissions", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST oversized body = %d, want 413", code)
	}

	wantStored := accepted + 1 // rejected device is stored with its verdict
	m := waitForCounter(t, base, "crowdd_stored_total", wantStored)
	testkit.CheckMetricsFlow(t, m)
	if got := m["crowdd_decode_errors_total"]; got != uint64(len(testkit.MalformedPayloads())) {
		t.Errorf("decode errors %d, want %d (oversized body must not reach the decoder)",
			got, len(testkit.MalformedPayloads()))
	}
	if got := m["crowdd_accepted_total"]; got != accepted {
		t.Errorf("accepted %d, want %d", got, accepted)
	}
	if got := m["crowdd_rejected_total"]; got != 1 {
		t.Errorf("rejected %d, want 1", got)
	}

	// Device verdict lookups.
	code, body := get(t, base+"/v1/devices/dev-hot")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/devices/dev-hot = %d", code)
	}
	var rec struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Accepted {
		t.Error("hot device's verdict says accepted, want rejected")
	}
	if code, _ := get(t, base+"/v1/devices/no-such-device"); code != http.StatusNotFound {
		t.Errorf("GET unknown device = %d, want 404", code)
	}

	// Bins settle after the debounced recompute covers the population.
	deadline := time.Now().Add(10 * time.Second)
	var mb struct {
		Models []struct {
			Model    string `json:"model"`
			Accepted int    `json:"accepted"`
			BinCount int    `json:"bin_count"`
		} `json:"models"`
	}
	for {
		code, body := get(t, base+"/v1/bins?model=Nexus+5")
		if code != http.StatusOK {
			if time.Now().After(deadline) {
				t.Fatalf("GET /v1/bins?model= = %d", code)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err := json.Unmarshal([]byte(body), &mb); err != nil {
			t.Fatal(err)
		}
		if len(mb.Models) == 1 && mb.Models[0].Accepted == int(accepted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bins never settled: %+v", mb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if mb.Models[0].BinCount < 2 {
		t.Errorf("two well-separated score groups binned into %d cluster(s)", mb.Models[0].BinCount)
	}
	// The unfiltered listing carries the model too.
	if code, body := get(t, base+"/v1/bins"); code != http.StatusOK || !strings.Contains(body, "Nexus 5") {
		t.Errorf("GET /v1/bins = %d %q", code, body)
	}
	if code, _ := get(t, base+"/v1/bins?model=NoSuchPhone"); code != http.StatusNotFound {
		t.Errorf("GET bins for unknown model = %d, want 404", code)
	}

	// Graceful drain: the daemon exits nil and accounts for every upload.
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	logs := out.String()
	if !strings.Contains(logs, "drained") {
		t.Errorf("shutdown log does not report the drain:\n%s", logs)
	}
	wantLine := fmt.Sprintf("received %d, stored %d (accepted %d, rejected 1), decode errors %d",
		wantStored+uint64(len(testkit.MalformedPayloads())), wantStored, accepted, len(testkit.MalformedPayloads()))
	if !strings.Contains(logs, wantLine) {
		t.Errorf("drain accounting line mismatch:\nwant substring: %s\ngot logs:\n%s", wantLine, logs)
	}
}

// TestDaemonTraceFlag boots the daemon with -trace and asserts one JSON
// span chain per accepted submission lands on stdout, interleaved with
// (but distinguishable from) the ordinary log lines.
func TestDaemonTraceFlag(t *testing.T) {
	dir := t.TempDir()
	base, out, shutdown := startDaemon(t, "-trace", "-data-dir", dir)
	policy := crowd.DefaultPolicy()
	raw := testkit.AcceptedPayload(t, policy, "trace-dev", 1200, 25)
	if code, body := post(t, base+"/v1/submissions", raw); code != http.StatusAccepted {
		t.Fatalf("POST = %d %q", code, body)
	}
	waitForCounter(t, base, "crowdd_stored_total", 1)
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	type span struct {
		Trace  string `json:"trace"`
		Span   string `json:"span"`
		Device string `json:"device"`
		Seq    uint64 `json:"seq"`
	}
	var spans []span
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // daemon log line, not a span
		}
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q is not JSON: %v", line, err)
		}
		spans = append(spans, s)
	}
	want := []string{"decode", "filter", "wal_append", "store"}
	if len(spans) != len(want) {
		t.Fatalf("-trace emitted %d spans for one submission, want %d:\n%s", len(spans), len(want), out.String())
	}
	for i, s := range spans {
		if s.Span != want[i] || s.Trace != spans[0].Trace || s.Device != "trace-dev" {
			t.Errorf("span %d = %+v, want stage %q on trace %q for trace-dev", i, s, want[i], spans[0].Trace)
		}
	}
	if spans[2].Seq == 0 || spans[3].Seq == 0 {
		t.Errorf("commit-side spans carry no sequence number: %+v", spans[2:])
	}
}

// TestDaemonDebugAddr boots the daemon with -debug-addr and asserts the
// pprof surface answers on its own listener, not on the API address.
func TestDaemonDebugAddr(t *testing.T) {
	base, out, shutdown := startDaemon(t, "-debug-addr", "127.0.0.1:0")
	logs := out.String()
	_, rest, ok := strings.Cut(logs, "crowdd: pprof on ")
	if !ok {
		t.Fatalf("no pprof line in boot log:\n%s", logs)
	}
	debugBase := strings.TrimSuffix(strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0]), "/debug/pprof")
	if code, body := get(t, debugBase+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("GET pprof cmdline = %d %q", code, body)
	}
	if code, body := get(t, debugBase+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("GET pprof index = %d, want the profile listing", code)
	}
	// The public API listener must NOT serve the debug surface.
	if code, _ := get(t, base+"/debug/pprof/"); code == http.StatusOK {
		t.Error("API listener serves /debug/pprof — the debug surface leaked onto the public address")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonFlagErrors locks the startup validation: bad flags, stray
// arguments, an inverted acceptance window, and an unbindable address
// all fail fast instead of half-starting.
func TestDaemonFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"stray args", []string{"stray"}},
		{"inverted window", []string{"-accept-lo", "30", "-accept-hi", "20"}},
		{"bad addr", []string{"-addr", "256.256.256.256:99999"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := run(ctx, tc.args, &out, nil); err == nil {
				t.Errorf("run(%v) succeeded, want error", tc.args)
			}
		})
	}
}

// TestDaemonDurableRestart runs the daemon's full persistence lifecycle
// through the signal path: boot with -data-dir, submit, drain gracefully
// (which must cut a covering snapshot), boot a second daemon on the same
// directory, and assert the corpus survived — zero replay, intact
// verdicts, and a recovery line on stdout — then keep submitting.
func TestDaemonDurableRestart(t *testing.T) {
	dir := t.TempDir()
	policy := crowd.DefaultPolicy()

	base, out, shutdown := startDaemon(t, "-data-dir", dir)
	const n = 6
	for i := 0; i < n; i++ {
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("dur-%02d", i), 1200+float64(i), 24)
		if code, body := post(t, base+"/v1/submissions", raw); code != http.StatusAccepted {
			t.Fatalf("POST %d = %d %q", i, code, body)
		}
	}
	m := waitForCounter(t, base, "crowdd_stored_total", n)
	if m["crowdd_wal_appended_total"] != n {
		t.Fatalf("wal appended %d, want %d", m["crowdd_wal_appended_total"], n)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	logs := out.String()
	if !strings.Contains(logs, "crowdd: persisted; wal 6 appends") {
		t.Errorf("shutdown log does not account for the WAL:\n%s", logs)
	}
	if !strings.Contains(logs, "final snapshot seq 6") {
		t.Errorf("graceful drain did not report the covering snapshot:\n%s", logs)
	}

	// Second life on the same directory.
	base2, out2, shutdown2 := startDaemon(t, "-data-dir", dir)
	if !strings.Contains(out2.String(), fmt.Sprintf("restored %d records (snapshot seq %d holding %d, wal replayed 0", n, n, n)) {
		t.Errorf("boot log does not narrate snapshot-only recovery:\n%s", out2.String())
	}
	if code, body := get(t, base2+"/healthz"); code != http.StatusOK ||
		!strings.Contains(body, "persistence: "+dir) ||
		!strings.Contains(body, fmt.Sprintf("recovery: restored %d records", n)) {
		t.Fatalf("GET /healthz after restart = %d %q", code, body)
	}
	m = metrics(t, base2)
	if m["crowdd_store_records"] != n || m["crowdd_wal_restored_records"] != n || m["crowdd_wal_replayed_total"] != 0 {
		t.Fatalf("restart metrics = store %d, restored %d, replayed %d; want %d, %d, 0",
			m["crowdd_store_records"], m["crowdd_wal_restored_records"], m["crowdd_wal_replayed_total"], n, n)
	}
	testkit.CheckMetricsFlow(t, m)
	// Verdicts survived the restart.
	code, body := get(t, base2+"/v1/devices/dur-03")
	if code != http.StatusOK || !strings.Contains(body, `"accepted":true`) {
		t.Fatalf("GET restored device = %d %q", code, body)
	}
	// And the daemon keeps committing past the restored tail.
	raw := testkit.AcceptedPayload(t, policy, "dur-late", 1300, 25)
	if code, body := post(t, base2+"/v1/submissions", raw); code != http.StatusAccepted {
		t.Fatalf("POST after restart = %d %q", code, body)
	}
	waitForCounter(t, base2, "crowdd_stored_total", 1)
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
