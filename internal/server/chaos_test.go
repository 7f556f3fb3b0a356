package server_test

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"accubench/internal/chaos"
	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/testkit"
)

// Chaos scenario tests: the in-process half of the fault-injection
// harness. Each test boots a real multi-node cluster whose peer traffic
// crosses a chaos.Transport executing a seeded fault plan, drives load
// through the faults, heals, and asserts the PR-6 acceptance invariants:
// zero acked-submission loss, digest convergence within a deadline,
// bit-identical bins on every live node, and the replication metric
// conservation laws. `go test ./internal/server -run Chaos -count=2`
// must pass with identical per-scenario event logs — the determinism
// pin every test here carries.

// chaosMut wires one node's peer traffic through the plan's Transport
// and registers every peer URL (each node registers its peers; across
// the cluster that covers everyone).
func chaosMut(t *testing.T, plan *chaos.Plan) func(i int, cfg *server.Config) {
	return func(i int, cfg *server.Config) {
		for id, u := range cfg.Cluster.Peers {
			if err := plan.RegisterNode(id, u); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Cluster.Client = &http.Client{
			Timeout:   5 * time.Second,
			Transport: chaos.NewTransport(plan, cfg.Cluster.NodeID),
		}
	}
}

// assertScriptedEvents is the determinism pin: replaying the scenario
// script on fresh plans with the same seed must reproduce the live
// plan's event log byte-for-byte. replay must mirror exactly the
// scripted calls the live run made.
func assertScriptedEvents(t *testing.T, live *chaos.Plan, replay func(p *chaos.Plan)) {
	t.Helper()
	script := func() []string {
		p := chaos.NewPlan(live.Seed())
		replay(p)
		return p.Events()
	}
	got := live.Events()
	if len(got) == 0 {
		t.Fatal("live plan scripted no events")
	}
	if a := script(); !reflect.DeepEqual(got, a) {
		t.Fatalf("event log is not a pure function of the seed:\nlive:   %v\nreplay: %v", got, a)
	}
	if a, b := script(), script(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays diverged:\n%v\nvs\n%v", a, b)
	}
}

// scrapeQuiescent scrapes a node's metrics until two successive reads
// of the replication-flow counters agree — the quiescence the
// conservation laws are stated under.
func scrapeQuiescent(t *testing.T, client *http.Client, base string) map[string]uint64 {
	t.Helper()
	keys := []string{"crowdd_store_records", "crowdd_repl_applied_total", "crowdd_reconcile_pulled_total", "crowdd_stored_total"}
	var prev map[string]uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := scrapeMetrics(t, client, base)
		if prev != nil {
			stable := true
			for _, k := range keys {
				stable = stable && m[k] == prev[k]
			}
			if stable || time.Now().After(deadline) {
				return m
			}
		}
		prev = m
		time.Sleep(100 * time.Millisecond)
	}
}

// assertClusterConverged asserts the post-heal invariants: converged
// digests, every listed device present on every node, bit-identical
// bins, and the replication conservation laws on each node.
func assertClusterConverged(t *testing.T, client *http.Client, nodes []*clusterNode, devices []string) {
	t.Helper()
	waitConverged(t, client, nodes, 20*time.Second)
	assertDevicesHeld(t, client, nodes, devices)

	deadline := time.Now().Add(10 * time.Second)
	for {
		keys := make([]string, 0, len(nodes))
		ok := true
		var first server.ModelBins
		for i, node := range nodes {
			mb, served := fetchModelBins(t, client, node.url, "Nexus 5")
			if !served {
				ok = false
				break
			}
			if i == 0 {
				first = mb
			}
			keys = append(keys, binKey(mb))
		}
		for i := 1; i < len(keys) && ok; i++ {
			ok = keys[0] == keys[i]
		}
		if ok && len(keys) == len(nodes) && first.Submissions == len(devices) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bins did not become identical across nodes: %v", keys)
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, node := range nodes {
		testkit.CheckReplicationMetrics(t, scrapeQuiescent(t, client, node.url))
	}
}

// TestChaosScenarioMatrix drives the non-partition scenarios: load
// flows while the faults are live, the plan heals, and the cluster must
// end converged with every acked submission everywhere.
func TestChaosScenarioMatrix(t *testing.T) {
	const seed = 7
	for _, name := range []string{"baseline", "degraded", "high-load"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := chaos.Lookup(name)
			if !ok {
				t.Fatalf("unknown scenario %q", name)
			}
			plan := chaos.NewPlan(seed)
			nodes := startCluster(t, 3, func(i int, cfg *server.Config) {
				chaosMut(t, plan)(i, cfg)
				if name == "high-load" {
					// The slow-disk half needs a real WAL to slow down.
					cfg.DataDir = t.TempDir()
					cfg.FsyncDelay = plan.FsyncDelay(cfg.Cluster.NodeID)
				}
			})
			ids := []string{"n1", "n2", "n3"}
			sc.Apply(plan, ids)

			client := &http.Client{Timeout: 5 * time.Second}
			var devices []string
			for i := 0; i < 18; i++ {
				dev := fmt.Sprintf("%s-%d", name, i)
				postAccepted(t, client, nodes[i%3], dev, 1000+float64(i%8)*40)
				devices = append(devices, dev)
			}

			sc.Heal(plan)
			assertClusterConverged(t, client, nodes, devices)
			assertScriptedEvents(t, plan, func(p *chaos.Plan) {
				sc.Apply(p, ids)
				sc.Heal(p)
			})
		})
	}
}

// TestChaosPartitionZeroAckedLoss is the harness's headline run: one
// node symmetrically partitioned, acked submissions flowing through the
// connected majority, a post to the victim surfacing the honest 503
// "unreplicated", a scheduled heal — and afterwards zero acked loss,
// converged digests and identical bins on all three nodes, under -race
// via `make chaos-smoke`.
func TestChaosPartitionZeroAckedLoss(t *testing.T) {
	const seed = 11
	plan := chaos.NewPlan(seed)
	nodes := startCluster(t, 3, func(i int, cfg *server.Config) {
		chaosMut(t, plan)(i, cfg)
		// Short ack window so the victim's unreplicated 503 surfaces
		// before the scheduled heal reconnects it.
		cfg.Cluster.AckTimeout = 200 * time.Millisecond
	})
	ids := []string{"n1", "n2", "n3"}
	sc, _ := chaos.Lookup("partition")
	sc.Apply(plan, ids) // schedules the heal (sc.HealAfter)

	// The victim is the one node partitioned from every other; the
	// connected nodes are cut only from the victim.
	var victim *clusterNode
	var connected []*clusterNode
	for _, node := range nodes {
		cut := 0
		for _, other := range ids {
			if other != node.id && plan.Partitioned(node.id, other) {
				cut++
			}
		}
		if cut == len(ids)-1 {
			victim = node
		} else {
			connected = append(connected, node)
		}
	}
	if victim == nil || len(connected) != 2 {
		t.Fatalf("partition scenario cut no victim: events %v", plan.Events())
	}

	client := &http.Client{Timeout: 5 * time.Second}

	// The victim cannot reach a replica: honesty demands a 503
	// "unreplicated" with Retry-After, never a false 202. The record
	// still commits locally (anti-entropy spreads it after heal).
	raw := testkit.AcceptedPayload(t, crowd.DefaultPolicy(), "isolated-0", 1200, 25)
	resp := postSubmission(t, client, victim.url, raw)
	code := resp.StatusCode
	retryAfter := resp.Header.Get("Retry-After")
	body := drainBody(t, resp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST to the partitioned node = %d (%s), want 503", code, body)
	}
	if retryAfter == "" {
		t.Error("unreplicated 503 carries no Retry-After")
	}

	// Acked load keeps flowing through the connected majority.
	var devices []string
	for i := 0; i < 12; i++ {
		dev := fmt.Sprintf("part-%d", i)
		postAccepted(t, client, connected[i%2], dev, 1000+float64(i%8)*40)
		devices = append(devices, dev)
	}

	// The scheduled heal reconnects the victim; the isolated record
	// spreads too — it was durable on the victim all along.
	devices = append(devices, "isolated-0")
	assertClusterConverged(t, client, nodes, devices)

	sc.Heal(plan)
	assertScriptedEvents(t, plan, func(p *chaos.Plan) {
		sc.Apply(p, ids)
		p.HealPartitions() // the live run's timer fired exactly once
		sc.Heal(p)
	})
}
