package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/testkit"
)

// Cluster e2e tests: several real Servers on real listeners (the peer
// URLs must exist before server.New, so httptest's late-bound URL does
// not work here), talking to each other over HTTP exactly as deployed
// nodes would.

// clusterNode is one booted member: its Server plus the HTTP plumbing
// serving it.
type clusterNode struct {
	id  string
	url string
	srv *server.Server

	ln   net.Listener
	hsrv *http.Server

	killed bool
	mu     sync.Mutex
}

// kill simulates a hard node loss: the listener drops (connections
// refuse) and the server crashes without any graceful flush.
func (n *clusterNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return
	}
	n.killed = true
	n.hsrv.Close()
	n.ln.Close()
	n.srv.Crash()
}

func (n *clusterNode) stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return
	}
	n.killed = true
	n.hsrv.Close()
	n.ln.Close()
	n.srv.Close()
}

// startCluster boots n cluster members with test-fast timings. mut, when
// non-nil, adjusts each node's config before New.
func startCluster(t *testing.T, n int, mut func(i int, cfg *server.Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	ids := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		peers := make(map[string]string)
		for j := range lns {
			if j != i {
				peers[ids[j]] = urls[j]
			}
		}
		cfg := server.Config{
			Cluster: &server.ClusterConfig{
				NodeID:            ids[i],
				Peers:             peers,
				AckTimeout:        2 * time.Second,
				ShipInterval:      2 * time.Millisecond,
				ReconcileInterval: 50 * time.Millisecond,
			},
		}
		if mut != nil {
			mut(i, &cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(context.Background())
		hsrv := &http.Server{Handler: srv.Handler()}
		go hsrv.Serve(lns[i])
		nodes[i] = &clusterNode{id: ids[i], url: urls[i], srv: srv, ln: lns[i], hsrv: hsrv}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.stop()
		}
	})
	return nodes
}

// postAccepted uploads one accepted payload and fails the test unless
// the cluster acknowledges it with 202 committed.
func postAccepted(t *testing.T, client *http.Client, node *clusterNode, device string, score float64) {
	t.Helper()
	policy := crowd.DefaultPolicy()
	raw := testkit.AcceptedPayload(t, policy, device, score, 25)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postSubmission(t, client, node.url, raw)
		code := resp.StatusCode
		body := drainBody(t, resp)
		if code == http.StatusAccepted {
			return
		}
		// 503 means "retry": backpressure or a transient replication gap.
		if code != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("POST %s to %s = %d, want 202 (%s)", device, node.id, code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type digestEntry struct {
	Records      int    `json:"records"`
	Digest       uint64 `json:"digest"`
	MaxWall      int64  `json:"max_hlc_wall"`
	SketchDigest uint64 `json:"sketch_digest"`
}

func fetchDigest(t *testing.T, client *http.Client, base string) (map[string]digestEntry, error) {
	t.Helper()
	resp, err := client.Get(base + "/v1/digest")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var d map[string]digestEntry
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, err
	}
	return d, nil
}

// waitConverged polls until every given node serves an identical,
// non-empty digest map.
func waitConverged(t *testing.T, client *http.Client, nodes []*clusterNode, window time.Duration) {
	t.Helper()
	deadline := time.Now().Add(window)
	for {
		digests := make([]map[string]digestEntry, 0, len(nodes))
		for _, node := range nodes {
			d, err := fetchDigest(t, client, node.url)
			if err == nil {
				digests = append(digests, d)
			}
		}
		ok := len(digests) == len(nodes)
		for i := 1; i < len(digests) && ok; i++ {
			ok = reflect.DeepEqual(digests[0], digests[i])
		}
		if ok && len(digests) > 0 && len(digests[0]) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("digests did not converge within %v: %v", window, digests)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertDevicesHeld reports every listed device that some given node
// does not serve at /v1/devices/{id}.
func assertDevicesHeld(t *testing.T, client *http.Client, nodes []*clusterNode, devices []string) {
	t.Helper()
	for _, dev := range devices {
		for _, node := range nodes {
			resp, err := client.Get(node.url + "/v1/devices/" + dev)
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			drainBody(t, resp)
			if code != http.StatusOK {
				t.Errorf("device %s missing from %s (HTTP %d)", dev, node.id, code)
			}
		}
	}
}

func fetchModelBins(t *testing.T, client *http.Client, base, model string) (server.ModelBins, bool) {
	t.Helper()
	resp, err := client.Get(base + "/v1/bins?model=" + url.QueryEscape(model))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		drainBody(t, resp)
		return server.ModelBins{}, false
	}
	var out struct {
		Models []server.ModelBins `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Models) == 0 {
		return server.ModelBins{}, false
	}
	return out.Models[0], true
}

// binKey is the portion of a bins reply that must be bit-identical on
// every replica: population, discovered bins, centroids, sizes, slope.
// Revision legitimately differs per node.
func binKey(mb server.ModelBins) string {
	mb.Revision = 0
	b, _ := json.Marshal(mb)
	return string(b)
}

// TestClusterReplicatesAndSurvivesKill is the headline guarantee: spray
// acknowledged submissions across a 3-node cluster, hard-kill one node
// mid-run, and every acknowledged submission must still be present on
// every survivor with bit-identical bins.
func TestClusterReplicatesAndSurvivesKill(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	client := &http.Client{Timeout: 5 * time.Second}

	var acked []string
	for i := 0; i < 24; i++ {
		dev := fmt.Sprintf("kill-%d", i)
		postAccepted(t, client, nodes[i%3], dev, 1000+float64(i%8)*40)
		acked = append(acked, dev)
	}

	nodes[2].kill()

	for i := 24; i < 48; i++ {
		dev := fmt.Sprintf("kill-%d", i)
		postAccepted(t, client, nodes[i%2], dev, 1000+float64(i%8)*40)
		acked = append(acked, dev)
	}

	survivors := nodes[:2]
	waitConverged(t, client, survivors, 15*time.Second)

	// Zero acknowledged-submission loss: every acked device answers on
	// every survivor.
	assertDevicesHeld(t, client, survivors, acked)

	// Every surviving record carries a cluster identity: an origin node
	// and a non-zero HLC stamp.
	for _, rec := range survivors[0].srv.Store().Model("Nexus 5") {
		if rec.Origin == "" || rec.Stamp().IsZero() {
			t.Fatalf("record %s has no cluster identity: origin %q stamp %v", rec.Device, rec.Origin, rec.Stamp())
		}
	}

	// Bit-identical bins on the survivors once the binners settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, okA := fetchModelBins(t, client, survivors[0].url, "Nexus 5")
		b, okB := fetchModelBins(t, client, survivors[1].url, "Nexus 5")
		if okA && okB && a.Submissions == len(acked) && binKey(a) == binKey(b) {
			if a.BinCount == 0 {
				t.Fatalf("converged bins discovered no clusters over %d devices", a.Accepted)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bins did not become identical: %+v vs %+v", a, b)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterProxyRouting pins proxy mode: a submission posted to a
// non-primary node is forwarded server-side, acknowledged 202, and the
// forward shows up in the non-primary's metrics.
func TestClusterProxyRouting(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	client := &http.Client{Timeout: 5 * time.Second}

	primary := nodes[0].srv.Replicator().Primary("Nexus 5")
	var nonPrimary *clusterNode
	for _, node := range nodes {
		if node.id != primary {
			nonPrimary = node
		}
	}
	postAccepted(t, client, nonPrimary, "proxy-0", 1200)

	m := scrapeMetrics(t, client, nonPrimary.url)
	if m["crowdd_repl_forwarded_total"] != 1 {
		t.Errorf("crowdd_repl_forwarded_total on non-primary = %d, want 1", m["crowdd_repl_forwarded_total"])
	}
	waitConverged(t, client, nodes, 10*time.Second)
}

// TestClusterRedirectRouting pins redirect mode: a non-primary node
// answers 307 with the primary's submissions URL, and the redirected
// POST commits.
func TestClusterRedirectRouting(t *testing.T) {
	nodes := startCluster(t, 2, func(i int, cfg *server.Config) {
		cfg.Cluster.RouteMode = server.RouteRedirect
	})
	client := &http.Client{
		Timeout:       5 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}

	primary := nodes[0].srv.Replicator().Primary("Nexus 5")
	var primaryNode, nonPrimary *clusterNode
	for _, node := range nodes {
		if node.id == primary {
			primaryNode = node
		} else {
			nonPrimary = node
		}
	}

	raw := testkit.AcceptedPayload(t, crowd.DefaultPolicy(), "redir-0", 1200, 25)
	resp := postSubmission(t, client, nonPrimary.url, raw)
	loc := resp.Header.Get("Location")
	code := resp.StatusCode
	drainBody(t, resp)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("POST to non-primary in redirect mode = %d, want 307", code)
	}
	want := primaryNode.url + "/v1/submissions"
	if loc != want {
		t.Fatalf("redirect Location = %q, want %q", loc, want)
	}
	m := scrapeMetrics(t, client, nonPrimary.url)
	if m["crowdd_repl_redirected_total"] != 1 {
		t.Errorf("crowdd_repl_redirected_total = %d, want 1", m["crowdd_repl_redirected_total"])
	}

	// Following the redirect by hand commits on the primary.
	postAccepted(t, client, primaryNode, "redir-0", 1200)
	waitConverged(t, client, nodes, 10*time.Second)
}

// TestClusterBinsFreshAtDigestMatch pins the replica read contract: a
// node's bins lag the cluster only by replication. After the model's
// primary acknowledges a submission, every other node's bins count it
// as soon as that node's /v1/digest entry for the model equals the
// primary's.
func TestClusterBinsFreshAtDigestMatch(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	const model = "Nexus 5"
	var primary *clusterNode
	for _, node := range nodes {
		if node.id == nodes[0].srv.Replicator().Primary(model) {
			primary = node
		}
	}

	for i := 0; i < 6; i++ {
		postAccepted(t, client, primary, fmt.Sprintf("fresh-%d", i), 1000+float64(i)*30)
		want, err := fetchDigest(t, client, primary.url)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range nodes {
			if node == primary {
				continue
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				d, err := fetchDigest(t, client, node.url)
				if err == nil && d[model] == want[model] {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s digest for %s never reached %+v: %+v (%v)", node.id, model, want[model], d[model], err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			mb, ok := fetchModelBins(t, client, node.url, model)
			if !ok || mb.Submissions != i+1 || mb.Accepted != i+1 {
				t.Fatalf("%s at the primary's digest serves %+v (ok=%v), want %d submissions", node.id, mb, ok, i+1)
			}
		}
	}
}
