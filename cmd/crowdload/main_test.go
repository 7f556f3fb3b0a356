package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accubench/internal/accubench"
	"accubench/internal/server"
	"accubench/internal/soc"
)

// TestLoadAgainstRealBackend runs the full load generator — simulated
// fleet, concurrent uploads, drain wait, bin report — against a real
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
			"-fleet", "8",
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
	sane := uploadItem{
		device: "fleet-0000001",
		model:  "Nexus 5",
		score:  300,
		cooldown: []accubench.CooldownSample{
			{At: 5 * time.Second, Reading: 41.25},
			{At: 10 * time.Second, Reading: 38.5},
		},
	}
	if err := plausible(sane); err != nil {
		t.Errorf("sane trace rejected: %v", err)
	}
	runaway := sane
	runaway.cooldown = []accubench.CooldownSample{
		{At: 5 * time.Second, Reading: 412.5},
		{At: 10 * time.Second, Reading: 380},
	}
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
		{"unknown model", []string{"-model", "NoSuchPhone", "-devices", "1"}},
		{"unknown source", []string{"-source", "magic", "-devices", "1"}},
		{"negative fleet", []string{"-fleet", "-5"}},
		{"mix with device source", []string{"-source", "device", "-fleet-mix", "Nexus 5=1", "-devices", "1"}},
		{"dry-run with device source", []string{"-source", "device", "-dry-run", "-devices", "1"}},
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
