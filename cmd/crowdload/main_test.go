package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"accubench/internal/server"
	"accubench/internal/soc"
	"accubench/internal/wire"
)

// TestLoadAgainstRealBackend runs the full load generator — simulated
// fleet, concurrent streamed uploads, bin report — against a real
// backend over HTTP, and asserts its own zero-drop guarantee held.
func TestLoadAgainstRealBackend(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	err = run([]string{
		"-addr", ts.URL,
		"-devices", "6",
		"-concurrency", "3",
		"-seed", "5",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("crowdload failed: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "uploaded 6 submissions") {
		t.Errorf("output does not report 6 uploads:\n%s", out)
	}
	if !strings.Contains(out, "zero dropped submissions") {
		t.Errorf("output does not confirm zero drops:\n%s", out)
	}
	if c := srv.Counters(); c.Stored != 6 {
		t.Errorf("server stored %d, want 6", c.Stored)
	}

	// A second run hits a warm server: accounting must be a delta against
	// the pre-existing records, not absolute counters.
	stdout.Reset()
	stderr.Reset()
	err = run([]string{
		"-addr", ts.URL,
		"-devices", "4",
		"-concurrency", "2",
		"-seed", "9",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("crowdload against warm server failed: %v\nstderr:\n%s", err, stderr.String())
	}
	out = stdout.String()
	if !strings.Contains(out, "uploaded 4 submissions") {
		t.Errorf("warm run does not report 4 uploads:\n%s", out)
	}
	if !strings.Contains(out, "zero dropped submissions") {
		t.Errorf("warm run does not confirm zero drops:\n%s", out)
	}
	if c := srv.Counters(); c.Stored != 10 {
		t.Errorf("server stored %d after both runs, want 10", c.Stored)
	}
}

// TestDryRunFleet runs the fleet source without any server: the
// population study must come out deterministic (same fingerprint for the
// same seed and mix, whatever the worker count).
func TestDryRunFleet(t *testing.T) {
	fingerprint := func(workers string) (string, string) {
		var stdout, stderr bytes.Buffer
		err := run([]string{
			"-dry-run",
			"-devices", "8",
			"-seed", "3",
			"-fleet-mix", "Nexus 5=1,Google Pixel=1",
			"-fleet-workers", workers,
		}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("dry run failed: %v\nstderr:\n%s", err, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{"dry run", "Nexus 5:", "Google Pixel:", "bin-", "fleet fingerprint:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("dry-run output lacks %q:\n%s", want, out)
			}
		}
		fp := out[strings.Index(out, "fleet fingerprint:"):]
		return strings.Fields(fp)[2], out
	}
	fp1, _ := fingerprint("1")
	fp4, out := fingerprint("4")
	if fp1 != fp4 {
		t.Errorf("fingerprint changed with worker count: %s vs %s\n%s", fp1, fp4, out)
	}
}

// TestParseMix locks the cohort apportionment.
func TestParseMix(t *testing.T) {
	n5, err := soc.ModelByName("Nexus 5")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := parseMix("Nexus 5=3,Google Pixel=1", n5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d cohorts, want 2", len(specs))
	}
	if specs[0].Devices+specs[1].Devices != 10 {
		t.Errorf("apportionment lost devices: %d + %d != 10", specs[0].Devices, specs[1].Devices)
	}
	if specs[0].Devices != 8 || specs[1].Devices != 2 {
		t.Errorf("3:1 split of 10 gave %d:%d, want 8:2", specs[0].Devices, specs[1].Devices)
	}
	// A tiny population must still give every cohort a device.
	specs, err = parseMix("Nexus 5=100,Google Pixel=1", n5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Devices != 1 || specs[1].Devices != 1 {
		t.Errorf("minimum-one rule broken: %d:%d", specs[0].Devices, specs[1].Devices)
	}
}

// TestPlausible locks the client-side upload gate: a lottery-tail
// thermal-runaway trace (readings past the ingest validator's 150 °C
// ceiling) is withheld, a sane trace passes.
func TestPlausible(t *testing.T) {
	sane := wire.Submission{
		Device:   "fleet-0000001",
		Model:    "Nexus 5",
		Score:    300,
		Cooldown: []wire.Point{{AtSeconds: 5, TempC: 41.25}, {AtSeconds: 10, TempC: 38.5}},
	}
	if err := plausible(sane); err != nil {
		t.Errorf("sane trace rejected: %v", err)
	}
	runaway := sane
	runaway.Cooldown = []wire.Point{{AtSeconds: 5, TempC: 412.5}, {AtSeconds: 10, TempC: 380}}
	if err := plausible(runaway); err == nil {
		t.Error("runaway trace (412 °C reading) passed the plausibility gate")
	}
}

// TestLoadFlagErrors locks the generator's input validation.
func TestLoadFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"stray args", []string{"stray"}},
		{"zero devices", []string{"-devices", "0"}},
		{"negative concurrency", []string{"-concurrency", "-1"}},
		{"zero batch", []string{"-batch", "0"}},
		{"unknown model", []string{"-model", "NoSuchPhone", "-devices", "1"}},
		{"dry-run with peers", []string{"-dry-run", "-peers", "http://x", "-devices", "1"}},
		{"bad mix weight", []string{"-dry-run", "-fleet-mix", "Nexus 5=zero", "-devices", "1"}},
		{"mix larger than fleet", []string{"-dry-run", "-fleet-mix", "Nexus 5=1,Google Pixel=1", "-devices", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(tc.args, &stdout, &stderr); err == nil {
				t.Errorf("run(%v) succeeded, want error", tc.args)
			}
		})
	}
}

// TestLoadAgainstClusterWithDeadNode drives the cluster path against
// three in-process WAL-backed nodes, one stopped before the run. The
// worker homed on the dead node must fail over and finish on a live one,
// and the run must verify the cluster contract for both models of the
// mix: converged digests on the two live nodes, every acked submission
// on both, identical bins, zero drops.
func TestLoadAgainstClusterWithDeadNode(t *testing.T) {
	const nodes, workers, devices = 3, 3, 48
	lns := make([]net.Listener, nodes)
	urls := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*server.Server, nodes)
	hsrvs := make([]*http.Server, nodes)
	for i := range srvs {
		peers := make(map[string]string)
		for j, u := range urls {
			if j != i {
				peers[fmt.Sprintf("n%d", j+1)] = u
			}
		}
		srv, err := server.New(server.Config{
			DataDir: t.TempDir(),
			Cluster: &server.ClusterConfig{
				NodeID:            fmt.Sprintf("n%d", i+1),
				Peers:             peers,
				AckTimeout:        2 * time.Second,
				ShipInterval:      2 * time.Millisecond,
				ReconcileInterval: 50 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(context.Background())
		hsrvs[i] = &http.Server{Handler: srv.Handler()}
		go hsrvs[i].Serve(lns[i])
		srvs[i] = srv
	}
	defer func() {
		for i := range srvs {
			hsrvs[i].Close()
			srvs[i].Close()
		}
	}()
	// n3 is down before the first upload: its port refuses connections.
	hsrvs[2].Close()
	srvs[2].Close()

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", urls[0],
		"-peers", urls[1] + "," + urls[2],
		"-devices", fmt.Sprint(devices),
		"-fleet-mix", "Nexus 5=1,Google Pixel=1",
		"-concurrency", fmt.Sprint(workers),
		"-batch", "4",
		"-seed", "11",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("crowdload failed: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		fmt.Sprintf("uploaded %d submissions", devices),
		"cluster converged: 2/3 nodes agree on digests",
		fmt.Sprintf("all %d acknowledged submissions present on every live node", devices),
		"bins bit-identical across 2 nodes",
		"bins for Nexus 5:",
		"bins for Google Pixel:",
		"zero dropped submissions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	// Both live nodes hold every upload, with identical per-model digests.
	live := srvs[:2]
	for i, srv := range live {
		if n := srv.Store().Len(); n != devices {
			t.Errorf("n%d holds %d records, want %d", i+1, n, devices)
		}
	}
	if a, b := live[0].Store().DigestAll(), live[1].Store().DigestAll(); !reflect.DeepEqual(a, b) {
		t.Errorf("live nodes' digests differ:\n n1 %v\n n2 %v", a, b)
	}

	// Failover: every worker's stream, the one homed on n3 included,
	// landed on a live node. Node-to-node forwards are streams too, so
	// they come off the count.
	clientStreams := uint64(0)
	for _, u := range urls[:2] {
		m, err := fetchMetrics(http.DefaultClient, u)
		if err != nil {
			t.Fatal(err)
		}
		clientStreams += m["crowdd_wire_streams_total"] - m["crowdd_wire_forwarded_batches_total"]
	}
	if clientStreams != workers {
		t.Errorf("live nodes accepted %d client streams, want one per worker (%d)", clientStreams, workers)
	}
}
