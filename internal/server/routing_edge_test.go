package server_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"accubench/internal/chaos"
	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/testkit"
)

// Proxy-routing edge cases: the failure corners of the cluster's
// submission routing — forwarded-loop protection, the mid-body proxy
// break, and the primary-down honesty contract.

// findRouting splits a cluster by role for the test model.
func findRouting(t *testing.T, nodes []*clusterNode, model string) (primary, nonPrimary *clusterNode) {
	t.Helper()
	id := nodes[0].srv.Replicator().Primary(model)
	for _, node := range nodes {
		if node.id == id {
			primary = node
		} else {
			nonPrimary = node
		}
	}
	if primary == nil || nonPrimary == nil {
		t.Fatalf("could not split roles: primary of %s is %s", model, id)
	}
	return primary, nonPrimary
}

// TestForwardedLoopProtection pins the loop breaker: a submission
// already carrying the forwarded marker is ingested where it lands,
// never routed again — two nodes with transiently different ring views
// must not bounce an upload between them forever.
func TestForwardedLoopProtection(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	_, nonPrimary := findRouting(t, nodes, "Nexus 5")

	raw := testkit.AcceptedPayload(t, crowd.DefaultPolicy(), "loop-0", 1200, 25)
	req, err := http.NewRequest(http.MethodPost, nonPrimary.url+"/v1/submissions", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// The literal header a forwarding peer would set — pinned by name so
	// a silent rename breaks this test, not the cluster.
	req.Header.Set("X-Crowd-Forwarded", "n9")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	code := resp.StatusCode
	body := drainBody(t, resp)
	if code != http.StatusAccepted {
		t.Fatalf("forwarded submission to non-primary = %d (%s), want 202 local ingest", code, body)
	}

	// Ingested here, not routed: no forward, and the record is already
	// in the local store.
	m := scrapeMetrics(t, client, nonPrimary.url)
	if m["crowdd_repl_forwarded_total"] != 0 {
		t.Errorf("forwarded submission was routed again: forwarded=%d", m["crowdd_repl_forwarded_total"])
	}
	devResp, err := client.Get(nonPrimary.url + "/v1/devices/loop-0")
	if err != nil {
		t.Fatal(err)
	}
	devCode := devResp.StatusCode
	drainBody(t, devResp)
	if devCode != http.StatusOK {
		t.Errorf("forwarded submission not in the receiving node's store (HTTP %d)", devCode)
	}
}

// TestProxyMidBody307Fallback pins the ambiguous-outcome corner: the
// proxy reached the primary but the response relay broke mid-body. The
// primary may have committed, so the only honest answer is a 307 to the
// primary — the client retries there directly, dup-safe.
func TestProxyMidBody307Fallback(t *testing.T) {
	plan := chaos.NewPlan(3)
	nodes := startCluster(t, 2, chaosMut(t, plan))
	client := &http.Client{
		Timeout:       5 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	primary, nonPrimary := findRouting(t, nodes, "Nexus 5")

	// Every response from the primary to the non-primary breaks mid-body.
	plan.SetRule(nonPrimary.id, primary.id, chaos.Rule{BodyErr: 1})

	raw := testkit.AcceptedPayload(t, crowd.DefaultPolicy(), "midbody-0", 1200, 25)
	resp := postSubmission(t, client, nonPrimary.url, raw)
	code := resp.StatusCode
	loc := resp.Header.Get("Location")
	body := drainBody(t, resp)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("mid-body proxy failure answered %d (%s), want 307", code, body)
	}
	if want := primary.url + "/v1/submissions"; loc != want {
		t.Fatalf("307 Location = %q, want %q", loc, want)
	}
	if !strings.Contains(body, "redirect") {
		t.Fatalf("307 body %q does not say redirect", body)
	}
	m := scrapeMetrics(t, client, nonPrimary.url)
	if m["crowdd_repl_forward_body_failures_total"] != 1 {
		t.Errorf("crowdd_repl_forward_body_failures_total = %d, want 1", m["crowdd_repl_forward_body_failures_total"])
	}

	// The break hit only the relay: the primary handled the forwarded
	// POST, so following the redirect is a dup-safe retry.
	plan.Heal() // BodyErr would break reconcile pulls too
	postAccepted(t, client, primary, "midbody-0", 1200)
	waitConverged(t, client, nodes, 10*time.Second)
}

// TestPrimaryDownLocalIngestFallback pins the honesty contract when the
// shard primary is dead: the surviving non-primary ingests locally
// (durable, spreads via anti-entropy) but refuses the 202 — the client
// gets 503 "unreplicated" with Retry-After, because no replica holds
// the record yet.
func TestPrimaryDownLocalIngestFallback(t *testing.T) {
	nodes := startCluster(t, 2, func(i int, cfg *server.Config) {
		// A short ack window keeps the honest 503 fast.
		cfg.Cluster.AckTimeout = 300 * time.Millisecond
	})
	client := &http.Client{Timeout: 5 * time.Second}
	primary, survivor := findRouting(t, nodes, "Nexus 5")

	primary.kill()

	raw := testkit.AcceptedPayload(t, crowd.DefaultPolicy(), "orphan-0", 1200, 25)
	resp := postSubmission(t, client, survivor.url, raw)
	code := resp.StatusCode
	retryAfter := resp.Header.Get("Retry-After")
	body := drainBody(t, resp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("primary-down submission = %d (%s), want 503", code, body)
	}
	if !strings.Contains(body, "unreplicated") {
		t.Fatalf("503 body %q does not say unreplicated", body)
	}
	if retryAfter != "1" {
		t.Errorf("Retry-After = %q, want %q", retryAfter, "1")
	}

	m := scrapeMetrics(t, client, survivor.url)
	if m["crowdd_repl_ingest_fallback_total"] != 1 {
		t.Errorf("crowdd_repl_ingest_fallback_total = %d, want 1", m["crowdd_repl_ingest_fallback_total"])
	}
	if m["crowdd_repl_ack_timeouts_total"] == 0 {
		t.Error("crowdd_repl_ack_timeouts_total = 0, want a recorded timeout")
	}

	// Refused the ack, kept the record: it is durable locally and will
	// spread once a peer returns.
	devResp, err := client.Get(survivor.url + "/v1/devices/orphan-0")
	if err != nil {
		t.Fatal(err)
	}
	devCode := devResp.StatusCode
	drainBody(t, devResp)
	if devCode != http.StatusOK {
		t.Errorf("unreplicated record missing from the survivor (HTTP %d)", devCode)
	}
}

// TestClusterMalformedUploadRejected pins the cluster JSON route's
// answer to bytes that do not decode: 400, never a 202, with each one
// counted as received and as a decode error.
func TestClusterMalformedUploadRejected(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	primary, _ := findRouting(t, nodes, "Nexus 5")

	malformed := testkit.MalformedPayloads()
	for i, raw := range malformed {
		resp := postSubmission(t, client, primary.url, raw)
		code := resp.StatusCode
		body := drainBody(t, resp)
		if code != http.StatusBadRequest {
			t.Errorf("malformed upload %d = %d (%s), want 400", i, code, body)
		}
	}
	m := scrapeMetrics(t, client, primary.url)
	testkit.CheckMetricsFlow(t, m)
	if got := m["crowdd_decode_errors_total"]; got != uint64(len(malformed)) || m["crowdd_received_total"] != got {
		t.Errorf("received %d, decode errors %d; want %d of each", m["crowdd_received_total"], got, len(malformed))
	}
}
