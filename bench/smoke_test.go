package bench

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// smokeSeconds is the run length the smoke test scales every workload
// to.
const smokeSeconds = 1

// buildPrograms builds crowdd and experiments from the repository into
// a temporary directory.
func buildPrograms(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, pkg := range []string{"crowdd", "experiments"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, pkg), "./cmd/"+pkg)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return bin
}

// TestSmoke runs every workload end to end at smokeSeconds scale, and
// one traced run, and checks that each run is correct and emits every
// metric BENCHMARK.json lists, with its unit, direction and sample count.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds crowdd and runs every workload")
	}
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver runs %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q", i, w.Name, Workloads[i])
		}
	}
	bin := buildPrograms(t)
	run := func(t *testing.T, workload string, trace bool, want []SpecMetric) {
		t.Parallel()
		t0 := time.Now()
		res, err := Run(context.Background(), Config{
			Workload: workload, Seed: 1, Seconds: smokeSeconds, Trace: trace, Spec: spec,
			Bin: bin, Work: t.TempDir(), Out: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s (trace %v): %v", workload, trace, err)
		}
		t.Logf("%s (trace %v): %d operations in %v", workload, trace, res.Attempted, time.Since(t0).Round(time.Millisecond))
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (trace %v): correct %v, %d of %d failed, checks %+v", workload, trace, res.Correct, res.Failed, res.Attempted, res.Checks)
		}
		got := make(map[string]Metric)
		for _, m := range res.Metrics {
			got[m.Name] = m
		}
		for _, w := range want {
			m, ok := got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s (trace %v): %s not emitted", workload, trace, w.Name)
			case m.Unit != w.Unit || m.Better != w.Better:
				t.Errorf("%s: %s emitted in %s, %s better; BENCHMARK.json says %s, %s better", workload, w.Name, m.Unit, m.Better, w.Unit, w.Better)
			case m.N < 1 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v over n=%d", workload, m.Name, m.Value, m.N)
			}
		}
	}
	// The runs check correctness, not speed, so they share the machine.
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) { run(t, w, false, spec.EndToEnd) })
	}
	// The traced run is one procedure for every workload, differing only
	// in its pacing rate, so one workload covers it.
	t.Run("trace", func(t *testing.T) { run(t, "stream-ingest", true, spec.PerLayer) })
}

// TestWaitOutputSeesLateLine checks that a daemon's output line is found
// when it reaches the buffer after the check began, as the recovery line
// can when the pipe copy lags /healthz.
func TestWaitOutputSeesLateLine(t *testing.T) {
	d := &daemon{out: &syncBuffer{}}
	go func() {
		time.Sleep(20 * time.Millisecond)
		d.out.Write([]byte("crowdd: data dir x — restored 42 records\n"))
	}()
	m := d.waitOutput(context.Background(), restoredLine, 5*time.Second)
	if m == nil || m[1] != "42" {
		t.Fatalf("waitOutput = %q, want the late line's count 42", m)
	}
}

// TestVerifyCountsRejectsWrongAckCount checks the ingest conservation
// check against a real daemon's counters: it passes with the number of
// acknowledged submissions and fails when told of one more ack than the
// daemon stored.
func TestVerifyCountsRejectsWrongAckCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts crowdd")
	}
	e := &runEnv{ctx: context.Background(), cfg: Config{Workload: "counts", Seed: 1, Seconds: 1, Work: t.TempDir()}, crowdd: filepath.Join(buildPrograms(t), "crowdd"), values: map[string]Metric{}}
	defer e.cleanup()
	in, err := NewInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	e.inputs = in
	d, _, err := e.freshDaemon()
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.streamPhase([]*daemon{d}, []string{d.url}, in.Take(100, "counts"), make([]time.Duration, 100))
	if err != nil {
		t.Fatal(err)
	}
	after, err := e.scrape([]*daemon{d})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCounts(p.before, after, len(p.acked)); err != nil {
		t.Fatalf("true ack count %d rejected: %v", len(p.acked), err)
	}
	if err := verifyCounts(p.before, after, len(p.acked)+1); err == nil {
		t.Fatalf("claimed %d acks against %d stored, and the check passed", len(p.acked)+1, len(p.acked))
	}
}
