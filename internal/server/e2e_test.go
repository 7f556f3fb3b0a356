package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/testkit"
	"accubench/internal/units"
)

// Black-box tests: everything goes through srv.Handler() over real HTTP;
// nothing reaches into the pipeline except the exported Counters.

func postSubmission(t *testing.T, client *http.Client, base string, raw []byte) *http.Response {
	t.Helper()
	resp, err := client.Post(base+"/v1/submissions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// scrapeText fetches the raw /metrics exposition.
func scrapeText(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return drainBody(t, resp)
}

// scrapeMetrics parses the integer-valued samples out of /metrics —
// comment lines and float-valued series (histogram sums, quantiles) are
// skipped, so the conservation-law counters stay a flat map.
func scrapeMetrics(t *testing.T, client *http.Client, base string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range strings.Split(scrapeText(t, client, base), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue
		}
		out[name] = n
	}
	return out
}

// TestBackpressureDeterministic pins the saturation path without racing
// the workers: the pipeline is built but NOT started, so its intake queue
// (depth 1) fills deterministically. The first POST queues, the second
// hits the submit timeout and must come back 503 with Retry-After. Once
// the workers start, the retry goes through and the drain accounts for
// every byte ever accepted.
func TestBackpressureDeterministic(t *testing.T) {
	srv, err := server.New(server.Config{
		QueueDepth:    1,
		SubmitTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	policy := crowd.DefaultPolicy()

	first := testkit.AcceptedPayload(t, policy, "bp-0", 1000, 25)
	if resp := postSubmission(t, client, ts.URL, first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST with free queue = %d, want 202 (%s)", resp.StatusCode, drainBody(t, resp))
	} else {
		drainBody(t, resp)
	}

	second := testkit.AcceptedPayload(t, policy, "bp-1", 1100, 25)
	resp := postSubmission(t, client, ts.URL, second)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST against a full stopped queue = %d, want 503 (%s)", resp.StatusCode, drainBody(t, resp))
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 backpressure response is missing Retry-After")
	}
	drainBody(t, resp)

	// Start the workers; the client's retry must now succeed.
	srv.Start(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postSubmission(t, client, ts.URL, second)
		code := resp.StatusCode
		drainBody(t, resp)
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry after Start still failing with %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Close()

	c := srv.Counters()
	testkit.CheckCounterFlow(t, c)
	if c.Stored != c.Received {
		t.Errorf("well-formed uploads dropped: received %d, stored %d", c.Received, c.Stored)
	}
	if c.Accepted != 2 {
		t.Errorf("accepted %d submissions, want 2", c.Accepted)
	}
}

// TestE2ESubmissionsToBins drives a synthetic population through the
// public API: accepted payloads in two score groups, a rejected hot
// device, and the malformed corpus. Asserts verdict lookups, bins, and
// the /metrics conservation laws after a graceful drain.
func TestE2ESubmissionsToBins(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	policy := crowd.DefaultPolicy()

	var accepted int
	for i := 0; i < 10; i++ {
		// Alternate clusters as ambient rises so score and ambient stay
		// uncorrelated — otherwise the binner's slope normalization would
		// (correctly) absorb the separation as an ambient effect.
		score := 1000.0 // slow cluster
		if i%2 == 1 {
			score = 1600 // fast cluster
		}
		score += float64(i)                           // within-cluster spread
		ambient := units.Celsius(21 + 0.8*float64(i)) // interior of the window; the boundary itself is float-rounding fragile
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("e2e-%02d", i), score, ambient)
		resp := postSubmission(t, client, ts.URL, raw)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d (%s)", i, resp.StatusCode, drainBody(t, resp))
		}
		drainBody(t, resp)
		accepted++
	}
	rejected := testkit.RejectedPayload(t, policy, "e2e-hot", 900)
	resp := postSubmission(t, client, ts.URL, rejected)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rejected-by-policy POST = %d, want 202 (policy runs async)", resp.StatusCode)
	}
	drainBody(t, resp)
	for _, raw := range testkit.MalformedPayloads() {
		resp := postSubmission(t, client, ts.URL, raw)
		// Malformed bytes are still 202: decode happens off the request
		// path. They must surface in the decode-error counter instead.
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("malformed POST = %d, want 202 (%s)", resp.StatusCode, drainBody(t, resp))
		}
		drainBody(t, resp)
	}

	// Graceful drain, then everything is observable and settled.
	srv.Close()

	m := scrapeMetrics(t, client, ts.URL)
	testkit.CheckMetricsFlow(t, m)
	if got := m["crowdd_decode_errors_total"]; got != uint64(len(testkit.MalformedPayloads())) {
		t.Errorf("decode errors %d, want %d", got, len(testkit.MalformedPayloads()))
	}
	if got := m["crowdd_accepted_total"]; got != uint64(accepted) {
		t.Errorf("accepted %d, want %d", got, accepted)
	}
	if got := m["crowdd_rejected_total"]; got != 1 {
		t.Errorf("rejected %d, want 1", got)
	}

	// The exposition carries the observability layer's series: per-route
	// request histograms, per-stage ingest latency, per-shard store
	// occupancy, and derived quantiles — all structurally sound.
	body := scrapeText(t, client, ts.URL)
	for _, series := range []string{
		`crowdd_http_requests_total{route="POST /v1/submissions"}`,
		`crowdd_http_request_seconds_bucket{route="POST /v1/submissions",le="+Inf"}`,
		`crowdd_ingest_stage_seconds_bucket{stage="decode"`,
		`crowdd_ingest_stage_seconds_bucket{stage="filter"`,
		`crowdd_ingest_stage_seconds_bucket{stage="store"`,
		`crowdd_ingest_stage_seconds_p99{stage="decode"}`,
		`crowdd_store_shard_records{shard="`,
		`crowdd_store_shard_puts_total{shard="`,
		`crowdd_store_lock_wait_seconds_count`,
		`# TYPE crowdd_http_request_seconds histogram`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing the %s series", series)
		}
	}
	testkit.CheckHistogramExposition(t, body)

	// Device verdict lookups.
	resp, err = client.Get(ts.URL + "/v1/devices/e2e-hot")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Device   string `json:"device"`
		Accepted bool   `json:"accepted"`
	}
	if err := json.Unmarshal([]byte(drainBody(t, resp)), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Accepted {
		t.Error("hot device's verdict says accepted, want rejected")
	}
	resp, err = client.Get(ts.URL + "/v1/devices/no-such-device")
	if err != nil {
		t.Fatal(err)
	}
	if code := resp.StatusCode; code != http.StatusNotFound {
		t.Errorf("unknown device lookup = %d, want 404", code)
	}
	drainBody(t, resp)

	// Bins: Close drained the pipeline, so the bins cover the full
	// accepted population.
	resp, err = client.Get(ts.URL + "/v1/bins?model=Nexus+5")
	if err != nil {
		t.Fatal(err)
	}
	var bins struct {
		Models []struct {
			Model    string `json:"model"`
			Accepted int    `json:"accepted"`
			BinCount int    `json:"bin_count"`
			Sizes    []int  `json:"sizes"`
		} `json:"models"`
	}
	if err := json.Unmarshal([]byte(drainBody(t, resp)), &bins); err != nil {
		t.Fatal(err)
	}
	if len(bins.Models) != 1 || bins.Models[0].Model != "Nexus 5" {
		t.Fatalf("bins response: %+v", bins)
	}
	mb := bins.Models[0]
	if mb.Accepted != accepted {
		t.Errorf("bins cover %d accepted, want %d", mb.Accepted, accepted)
	}
	if mb.BinCount < 2 {
		t.Errorf("two well-separated score groups binned into %d cluster(s)", mb.BinCount)
	}
	var population int
	for _, n := range mb.Sizes {
		population += n
	}
	if population != accepted {
		t.Errorf("bin sizes sum to %d, want %d — devices fell out of the clustering", population, accepted)
	}

	resp, err = client.Get(ts.URL + "/v1/bins?model=NoSuchPhone")
	if err != nil {
		t.Fatal(err)
	}
	if code := resp.StatusCode; code != http.StatusNotFound {
		t.Errorf("bins for unknown model = %d, want 404", code)
	}
	drainBody(t, resp)
}

// stableBins is the /v1/bins payload minus Revision (a node-local store
// revision that legitimately differs across nodes and restarts).
type stableBins struct {
	Model        string    `json:"model"`
	Submissions  int       `json:"submissions"`
	Accepted     int       `json:"accepted"`
	AmbientSlope float64   `json:"ambient_slope_per_c"`
	BinCount     int       `json:"bin_count"`
	Centroids    []float64 `json:"centroids"`
	Sizes        []int     `json:"sizes"`
}

// fetchBins returns the stable bins for one model, or nil when the
// server holds no record for it.
func fetchBins(t *testing.T, client *http.Client, base, model string) *stableBins {
	t.Helper()
	resp, err := client.Get(base + "/v1/bins")
	if err != nil {
		t.Fatal(err)
	}
	var bins struct {
		Models []stableBins `json:"models"`
	}
	if err := json.Unmarshal([]byte(drainBody(t, resp)), &bins); err != nil {
		t.Fatal(err)
	}
	for i := range bins.Models {
		if bins.Models[i].Model == model {
			return &bins.Models[i]
		}
	}
	return nil
}

// waitForBins polls until the model's bins cover wantAccepted devices —
// for reads after a JSON 202, which only means "enqueued".
func waitForBins(t *testing.T, client *http.Client, base, model string, wantAccepted int) *stableBins {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if mb := fetchBins(t, client, base, model); mb != nil && mb.Accepted >= wantAccepted {
			return mb
		}
		if time.Now().After(deadline) {
			t.Fatalf("bins never covered %d accepted devices for %s", wantAccepted, model)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForStored polls /metrics until the pipeline has stored (or failed)
// everything submitted, so crash points are deterministic.
func waitForStored(t *testing.T, client *http.Client, base string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := scrapeMetrics(t, client, base)
		if m["crowdd_stored_total"]+m["crowdd_decode_errors_total"] >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never settled at %d processed: %v", want, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// walSegments lists the data dir's WAL segment files, sorted by name
// (which sorts by first sequence number).
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// TestCrashRecoveryE2E is the durability contract as a black box: boot
// with a data dir, submit over HTTP, hard-kill mid-stream, restart on the
// same dir, and every accepted submission — sequence numbers, scores,
// verdicts, bins — must come back. Then damage the log's tail two ways
// (torn half-frame, bit flip) and assert boot truncates instead of
// aborting, losing at most the damaged record.
func TestCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	policy := crowd.DefaultPolicy()
	boot := func() *server.Server {
		// A commit returns only after its covering fsync: every
		// 202'd-and-stored submission is durable the moment the counter
		// moves.
		srv, err := server.New(server.Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv1 := boot()
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1.Start(ctx1)
	ts1 := httptest.NewServer(srv1.Handler())
	client := ts1.Client()

	const accepted = 8
	for i := 0; i < accepted; i++ {
		score := 1000.0 + float64(i)
		if i%2 == 1 {
			score = 1600 + float64(i)
		}
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("cr-%02d", i), score, units.Celsius(21+float64(i)))
		resp := postSubmission(t, client, ts1.URL, raw)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d (%s)", i, resp.StatusCode, drainBody(t, resp))
		}
		drainBody(t, resp)
	}
	rejected := testkit.RejectedPayload(t, policy, "cr-hot", 900)
	resp := postSubmission(t, client, ts1.URL, rejected)
	drainBody(t, resp)
	waitForStored(t, client, ts1.URL, accepted+1)

	// The pre-crash ground truth: full store state and settled bins.
	wantStore := srv1.Store().Snapshot()
	wantLen := srv1.Store().Len()
	wantBins := waitForBins(t, client, ts1.URL, "Nexus 5", accepted)

	// Hard kill: abort the pipeline, abandon the WAL without flush or
	// snapshot. Everything whose commit completed is already on disk.
	cancel1()
	srv1.Crash()
	ts1.Close()

	// Restart on the same directory.
	srv2 := boot()
	rec, ok := srv2.Recovery()
	if !ok {
		t.Fatal("persistent server reports no recovery")
	}
	if rec.Restored != wantLen || rec.Replayed != wantLen || rec.SnapshotRecords != 0 {
		t.Fatalf("recovery = %+v, want all %d replayed from the log (no snapshot was cut)", rec, wantLen)
	}
	if got := srv2.Store().Snapshot(); !reflect.DeepEqual(got, wantStore) {
		t.Fatalf("recovered store diverged from pre-crash state:\n got %+v\nwant %+v", got, wantStore)
	}

	// Recovery rebuilt the sketches: the first bins read after New, with
	// nothing started and nothing submitted since, matches pre-crash.
	ts2 := httptest.NewServer(srv2.Handler())
	client2 := ts2.Client()
	gotBins := fetchBins(t, client2, ts2.URL, "Nexus 5")
	if !reflect.DeepEqual(gotBins, wantBins) {
		t.Fatalf("recovered bins diverged:\n got %+v\nwant %+v", gotBins, wantBins)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	srv2.Start(ctx2)

	// The black-box surfaces agree: healthz narrates the recovery, metrics
	// keep the conservation laws with the restored leg.
	resp, err := client2.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := drainBody(t, resp)
	if !strings.Contains(health, "recovery: restored 9 records") {
		t.Errorf("healthz does not narrate the recovery:\n%s", health)
	}
	m := scrapeMetrics(t, client2, ts2.URL)
	testkit.CheckMetricsFlow(t, m)
	if m["crowdd_wal_restored_records"] != uint64(wantLen) || m["crowdd_wal_replayed_total"] != uint64(wantLen) {
		t.Errorf("restored-record metrics = %d/%d, want %d", m["crowdd_wal_restored_records"], m["crowdd_wal_replayed_total"], wantLen)
	}
	// A persistent server additionally exposes the WAL's latency series.
	walBody := scrapeText(t, client2, ts2.URL)
	for _, series := range []string{
		`crowdd_wal_fsync_seconds_bucket{le="+Inf"}`,
		`crowdd_wal_fsync_batch_count`,
	} {
		if !strings.Contains(walBody, series) {
			t.Errorf("/metrics on a persistent server is missing the %s series", series)
		}
	}
	testkit.CheckHistogramExposition(t, walBody)

	// The recovered server keeps accepting: one more device, then crash
	// again with a *torn tail* — garbage appended mid-write.
	raw := testkit.AcceptedPayload(t, policy, "cr-late", 1300, 26)
	resp = postSubmission(t, client2, ts2.URL, raw)
	drainBody(t, resp)
	waitForStored(t, client2, ts2.URL, 1)
	wantStore = srv2.Store().Snapshot()
	wantLen = srv2.Store().Len()
	cancel2()
	srv2.Crash()
	ts2.Close()

	segs := walSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no WAL segments on disk after two sessions")
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv3 := boot()
	rec, _ = srv3.Recovery()
	if rec.TruncatedBytes != 4 {
		t.Errorf("torn-tail boot truncated %d bytes, want 4", rec.TruncatedBytes)
	}
	if rec.Restored != wantLen {
		t.Errorf("torn tail cost committed records: restored %d, want %d", rec.Restored, wantLen)
	}
	if got := srv3.Store().Snapshot(); !reflect.DeepEqual(got, wantStore) {
		t.Fatal("store diverged after torn-tail recovery")
	}
	srv3.Crash()

	// Bit-flip the last committed frame: boot must truncate at the last
	// valid frame — losing exactly that one record — not abort.
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("active segment is empty; the bit-flip scenario needs the tail record in it")
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv4 := boot()
	rec, _ = srv4.Recovery()
	if rec.TruncatedBytes == 0 {
		t.Error("bit-flipped tail boot reports no truncation")
	}
	if rec.Restored != wantLen-1 {
		t.Errorf("bit-flipped tail: restored %d, want %d (exactly the damaged record lost)", rec.Restored, wantLen-1)
	}
	if got := srv4.Store().Snapshot(); !reflect.DeepEqual(got, wantStore[:len(wantStore)-1]) {
		t.Fatal("store diverged after bit-flip recovery: surviving prefix must be intact")
	}
	if err := srv4.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSpansE2E pins the tracing contract: with a TraceWriter set
// and a data dir, one accepted submission emits exactly one trace — a
// span per pipeline stage, decode → filter → wal_append → store, all
// carrying the same trace ID, the device, and (from the commit point
// on) the assigned sequence number.
func TestTraceSpansE2E(t *testing.T) {
	var buf bytes.Buffer
	srv, err := server.New(server.Config{
		DataDir:     t.TempDir(),
		TraceWriter: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	policy := crowd.DefaultPolicy()

	raw := testkit.AcceptedPayload(t, policy, "trace-dev", 1200, 25)
	resp := postSubmission(t, client, ts.URL, raw)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d (%s)", resp.StatusCode, drainBody(t, resp))
	}
	drainBody(t, resp)
	srv.Close() // drain: every span is flushed before the buffer is read
	ts.Close()

	type span struct {
		Trace  string  `json:"trace"`
		Span   string  `json:"span"`
		Device string  `json:"device"`
		Seq    uint64  `json:"seq"`
		DurUS  float64 `json:"dur_us"`
		Err    string  `json:"err"`
	}
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("trace output line %q is not a JSON span: %v", line, err)
		}
		spans = append(spans, s)
	}

	wantChain := []string{"decode", "filter", "wal_append", "store"}
	if len(spans) != len(wantChain) {
		t.Fatalf("one submission emitted %d spans, want %d:\n%s", len(spans), len(wantChain), buf.String())
	}
	for i, s := range spans {
		if s.Span != wantChain[i] {
			t.Errorf("span %d = %q, want %q", i, s.Span, wantChain[i])
		}
		if s.Trace == "" || s.Trace != spans[0].Trace {
			t.Errorf("span %q trace ID %q breaks the chain (first span has %q)", s.Span, s.Trace, spans[0].Trace)
		}
		if s.Device != "trace-dev" {
			t.Errorf("span %q carries device %q, want trace-dev", s.Span, s.Device)
		}
		if s.Err != "" {
			t.Errorf("span %q carries error %q on the happy path", s.Span, s.Err)
		}
		if s.DurUS < 0 {
			t.Errorf("span %q has negative duration %f", s.Span, s.DurUS)
		}
		if (s.Span == "wal_append" || s.Span == "store") && s.Seq == 0 {
			t.Errorf("span %q has no sequence number after the commit point", s.Span)
		}
	}
}

// TestGracefulShutdownSnapshotsE2E pins the clean-exit path: a graceful
// Close cuts a covering snapshot, so the next boot restores purely from
// it with zero replay.
func TestGracefulShutdownSnapshotsE2E(t *testing.T) {
	dir := t.TempDir()
	policy := crowd.DefaultPolicy()
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	for i := 0; i < 5; i++ {
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("gs-%02d", i), 1000+float64(i), 24)
		resp := postSubmission(t, client, ts.URL, raw)
		drainBody(t, resp)
	}
	waitForStored(t, client, ts.URL, 5)
	want := srv.Store().Snapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	pc, ok := srv.PersistCounters()
	if !ok || pc.LastSnapshotSeq != 5 {
		t.Fatalf("graceful close cut no covering snapshot: %+v", pc)
	}

	srv2, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := srv2.Recovery()
	if rec.Replayed != 0 || rec.SnapshotRecords != 5 || rec.Restored != 5 {
		t.Fatalf("boot after clean shutdown = %+v, want 5 from the snapshot and zero replay", rec)
	}
	if got := srv2.Store().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("store diverged across a clean shutdown")
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}
