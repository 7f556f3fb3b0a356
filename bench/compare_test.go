package bench

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the rule the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// pass builds a results file holding one end-to-end run of stream-ingest
// per value of each metric.
func pass(lat, capacity []float64) File {
	var f File
	for i := range lat {
		f.Results = append(f.Results, Result{Workload: "stream-ingest", Metrics: []Metric{
			{Name: "lat_p50_ms", Value: lat[i]},
			{Name: "capacity_per_s", Value: capacity[i]},
		}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	spec := Spec{
		Workloads: []SpecWorkload{{Name: "stream-ingest"}},
		EndToEnd: []SpecMetric{
			{Name: "lat_p50_ms", Better: Lower, Bound: 0.1},
			{Name: "capacity_per_s", Better: Higher, Bound: 0.1},
		},
	}
	base := pass([]float64{10, 10.1, 9.9, 10, 10.2}, []float64{1000, 1010, 990, 1000, 1005})
	for _, c := range []struct {
		name              string
		b                 File
		lat, capacity     string
		worse, unresolved int
	}{
		{"same", pass([]float64{10.1, 10, 9.9, 10.1, 10}, []float64{1002, 998, 1000, 1010, 995}), Unchanged, Unchanged, 0, 0},
		{"slower beyond the bound", pass([]float64{12, 12.1, 11.9, 12, 12.2}, []float64{1000, 1010, 990, 1000, 1005}), Worse, Unchanged, 1, 0},
		{"capacity drop beyond the bound", pass([]float64{10, 10.1, 9.9, 10, 10.2}, []float64{800, 810, 790, 800, 805}), Unchanged, Worse, 1, 0},
		{"faster in every run", pass([]float64{7, 7.1, 6.9, 7, 7.2}, []float64{1200, 1210, 1190, 1200, 1205}), Better, Better, 0, 0},
		{"spread wider than the bound", pass([]float64{8, 10, 12, 7, 13}, []float64{1000, 1010, 990, 1000, 1005}), Unresolved, Unchanged, 0, 1},
		{"metric missing", pass(nil, nil), Unresolved, Unresolved, 0, 2},
	} {
		rows, worse, unresolved := Compare(spec, base, c.b)
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", c.name, len(rows))
		}
		if rows[0].Verdict != c.lat || rows[1].Verdict != c.capacity {
			t.Errorf("%s: verdicts %s / %s, want %s / %s", c.name, rows[0].Verdict, rows[1].Verdict, c.lat, c.capacity)
		}
		if worse != c.worse || unresolved != c.unresolved {
			t.Errorf("%s: %d worse, %d unresolved; want %d, %d", c.name, worse, unresolved, c.worse, c.unresolved)
		}
	}
}

// TestCompareSetup checks setup_s's exceptions: a spread wider than the
// bound leaves it resolved, and a change beyond the bound is a regression
// only when it also exceeds setupFloor.
func TestCompareSetup(t *testing.T) {
	m := SpecMetric{Name: setupMetric, Better: Lower, Bound: 0.25}
	scale := func(k float64, xs ...float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = k * x
		}
		return out
	}
	daemon := []float64{0.0020, 0.0025, 0.0018, 0.0031, 0.0021}
	recovery := []float64{0.20, 0.25, 0.18, 0.31, 0.21}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"wide spread, same median", daemon, scale(1.01, daemon...), Unchanged},
		{"40% slower by 1 ms", daemon, scale(1.4, daemon...), Unchanged},
		{"40% slower by 84 ms", recovery, scale(1.4, recovery...), Worse},
		{"20% slower by 42 ms", recovery, scale(1.2, recovery...), Unchanged},
	} {
		if _, got := judge(m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
