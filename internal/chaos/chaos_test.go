package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// scriptPlan applies every scenario to a fresh plan over the same
// membership and returns the accumulated event log.
func scriptPlan(seed int64, nodes []string) []string {
	var events []string
	for _, s := range Scenarios {
		p := NewPlan(seed)
		s.Apply(p, nodes)
		s.Heal(p)
		events = append(events, p.Events()...)
	}
	return events
}

// TestScenarioEventLogDeterministic is the package-level determinism
// pin: the same seed and membership script byte-identical event logs,
// and a different seed moves the seeded choices.
func TestScenarioEventLogDeterministic(t *testing.T) {
	nodes := []string{"client", "n1", "n2", "n3"}
	a := scriptPlan(42, nodes)
	b := scriptPlan(42, nodes)
	if len(a) == 0 {
		t.Fatal("scenario matrix scripted no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed scripted different event logs:\n%v\nvs\n%v", a, b)
	}
}

// TestScenarioVictimNeverObserver: every scenario's fault victim comes
// from nodes[1:] — nodes[0] is the observer the harness measures
// through.
func TestScenarioVictimNeverObserver(t *testing.T) {
	nodes := []string{"client", "n1", "n2", "n3"}
	for seed := int64(0); seed < 50; seed++ {
		for _, name := range []string{"partition", "high-load"} {
			if v := victim(NewPlan(seed), name, nodes); v == "client" {
				t.Fatalf("seed %d scenario %s drew the observer as victim", seed, name)
			}
		}
	}
	// Partition scripts only cut the victim's links: the observer appears
	// in partition events only as the victim's counterparty.
	p := NewPlan(7)
	s, _ := Lookup("partition")
	s.apply(p, nodes)
	for _, ev := range p.Events() {
		if strings.HasPrefix(ev, "partition client<->") {
			t.Fatalf("observer was partitioned: %v", p.Events())
		}
	}
}

// TestTransportPartitionAndHeal drives a Transport against a real
// server: blocked while partitioned, clean after heal.
func TestTransportPartitionAndHeal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	p := NewPlan(1)
	if err := p.RegisterNode("n2", srv.URL); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewTransport(p, "n1")}

	p.Partition("n1", "n2")
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("partitioned request went through")
	}
	if !p.Partitioned("n1", "n2") || !p.Partitioned("n2", "n1") {
		t.Fatal("Partition must be symmetric")
	}
	p.HealPartitions()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("healed request failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("healed response body %q", body)
	}
	if st := p.Stats(); st.Blocked != 1 {
		t.Fatalf("stats = %+v, want exactly 1 blocked", st)
	}
}

// TestTransportDropAndError: probability-1 rules always fire, and the
// synthetic 503 is a well-formed response.
func TestTransportDropAndError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "real")
	}))
	defer srv.Close()
	p := NewPlan(1)
	if err := p.RegisterNode("n2", srv.URL); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewTransport(p, "n1")}

	p.SetRule("n1", "n2", Rule{Drop: 1})
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("Drop=1 request went through")
	}

	p.SetRule("n1", "n2", Rule{Error: 1})
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("Error=1 must answer, not fail: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "chaos") {
		t.Fatalf("injected body %q does not identify itself", body)
	}

	// Unregistered hosts bypass injection entirely.
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "bystander")
	}))
	defer other.Close()
	resp, err = client.Get(other.URL)
	if err != nil {
		t.Fatalf("unregistered host was injected: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "bystander" {
		t.Fatalf("unregistered host response %q", body)
	}
}

// TestTransportBodyErr: the response starts clean and breaks mid-body.
func TestTransportBodyErr(t *testing.T) {
	payload := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer srv.Close()
	p := NewPlan(1)
	if err := p.RegisterNode("n2", srv.URL); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: NewTransport(p, "n1")}
	p.SetRule("n1", "n2", Rule{BodyErr: 1})

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("BodyErr must fail during the read, not the round trip: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("mid-body break never surfaced; read %d bytes cleanly", len(got))
	}
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("break point out of band: read %d of %d bytes", len(got), len(payload))
	}
}

// TestPerPairStreamsIndependent: draws on one pair never perturb
// another pair's sequence — the property that keeps multi-node fault
// sequences stable when traffic volume shifts between pairs.
func TestPerPairStreamsIndependent(t *testing.T) {
	drops := func(p *Plan, src, dst string, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = p.decide(src, dst).drop
		}
		return out
	}
	mk := func() *Plan {
		p := NewPlan(99)
		p.SetRule("a", "b", Rule{Drop: 0.5})
		p.SetRule("a", "c", Rule{Drop: 0.5})
		return p
	}
	// Plan 1: a->b draws alone. Plan 2: a->c traffic interleaves.
	p1, p2 := mk(), mk()
	var ab1 []bool
	ab1 = drops(p1, "a", "b", 64)
	var ab2 []bool
	for i := 0; i < 64; i++ {
		ab2 = append(ab2, p2.decide("a", "b").drop)
		p2.decide("a", "c") // interleaved traffic on the sibling pair
	}
	if !reflect.DeepEqual(ab1, ab2) {
		t.Fatal("sibling-pair traffic perturbed a->b's fault sequence")
	}
}

// TestFsyncDelayHealsLive: the injected delay reads the plan on every
// call, so Heal unsticks the disk without re-wiring.
func TestFsyncDelayHealsLive(t *testing.T) {
	p := NewPlan(1)
	p.SetFsyncDelay("n1", 30*time.Millisecond)
	delay := p.FsyncDelay("n1")
	t0 := time.Now()
	delay()
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("fsync delay slept only %v", d)
	}
	p.Heal()
	t0 = time.Now()
	delay()
	if d := time.Since(t0); d > 10*time.Millisecond {
		t.Fatalf("healed fsync delay still slept %v", d)
	}
}

// TestScheduledHeal: HealPartitionsAfter lifts partitions and logs the
// heal when the timer fires.
func TestScheduledHeal(t *testing.T) {
	p := NewPlan(1)
	p.Partition("a", "b")
	p.HealPartitionsAfter(30 * time.Millisecond)
	if !p.Partitioned("a", "b") {
		t.Fatal("partition lifted before the schedule")
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Partitioned("a", "b") {
		if time.Now().After(deadline) {
			t.Fatal("scheduled heal never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	evs := p.Events()
	if evs[len(evs)-1] != "heal: partitions lifted" {
		t.Fatalf("heal event missing from log: %v", evs)
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("Names lists %q but Lookup misses it", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted an unknown scenario")
	}
	want := []string{"baseline", "degraded", "partition", "high-load"}
	if !reflect.DeepEqual(Names(), want) {
		t.Fatalf("scenario matrix = %v, want %v", Names(), want)
	}
}
