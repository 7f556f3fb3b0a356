package main

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"accubench/bench"
)

// writePass writes a synthetic results file with one stream-ingest run
// per latency value.
func writePass(t *testing.T, lat ...float64) string {
	t.Helper()
	var f bench.File
	for _, v := range lat {
		f.Results = append(f.Results, bench.Result{Workload: "stream-ingest", Metrics: []bench.Metric{{Name: "lat_p50_ms", Value: v}}})
	}
	path := filepath.Join(t.TempDir(), "pass.json")
	if err := bench.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareFilesFailsOnRegression checks -compare end to end on result
// files: the same numbers pass, and a median worse than the bound is an
// error, which main turns into a non-zero exit.
func TestCompareFilesFailsOnRegression(t *testing.T) {
	spec := bench.Spec{
		Workloads: []bench.SpecWorkload{{Name: "stream-ingest"}},
		EndToEnd:  []bench.SpecMetric{{Name: "lat_p50_ms", Better: bench.Lower, Bound: 0.1}},
	}
	base := writePass(t, 2.0, 2.1, 1.9, 2.0, 2.05)
	if err := compareFiles(io.Discard, spec, base, writePass(t, 2.02, 1.98, 2.0, 2.1, 1.95)); err != nil {
		t.Errorf("unchanged pass: %v", err)
	}
	if err := compareFiles(io.Discard, spec, base, writePass(t, 2.5, 2.6, 2.4, 2.5, 2.55)); err == nil {
		t.Error("a 25% slower pass compared without error")
	}
}

// TestOutRefusesOtherEnv checks that -out will not add runs to a results
// file measured under another environment, and refuses before running.
func TestOutRefusesOtherEnv(t *testing.T) {
	path := writePass(t, 2.0)
	err := run(context.Background(), []string{"-root", "../..", "-build", t.TempDir(), "-workload", "stream-ingest", "-out", path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "measured under env") {
		t.Fatalf("appending to a file of another env: %v", err)
	}
}
