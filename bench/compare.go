package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Directions a metric can improve in.
const (
	Lower  = "lower"
	Higher = "higher"
)

// setupMetric is the benchmark's set-up time. Its spread between runs
// does not decide a comparison, only its median does, and a change
// smaller than setupFloor seconds never counts as a regression: a daemon
// start of a few milliseconds is mostly process creation and page
// faults, whose cost follows the machine's load by more than the bound
// from one hour to the next (bench/README.md, "Bounds and spread").
const (
	setupMetric = "setup_s"
	setupFloor  = 0.050
)

// SpecMetric is one metric of BENCHMARK.json. Bound, for an end-to-end
// metric, is the share of the baseline median by which it may get worse
// before a change counts as a regression.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// SpecWorkload is one workload of BENCHMARK.json.
type SpecWorkload struct {
	Name string `json:"name"`
}

// Spec is the part of BENCHMARK.json the driver reads: the workloads,
// and the metrics with their directions and regression bounds.
type Spec struct {
	Workloads []SpecWorkload `json:"workloads"`
	EndToEnd  []SpecMetric   `json:"end_to_end"`
	PerLayer  []SpecMetric   `json:"per_layer"`
}

// metric returns the definition of the metric called name, from either
// list.
func (s Spec) metric(name string) (SpecMetric, bool) {
	for _, defs := range [][]SpecMetric{s.EndToEnd, s.PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return SpecMetric{}, false
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of a comparison row.
const (
	Unchanged  = "unchanged"
	Better     = "better"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Row compares one metric on one workload between a baseline pass A and
// a candidate pass B.
type Row struct {
	Workload string
	Metric   SpecMetric
	// A and B are the medians; Change is (B-A)/A.
	A, B, Change float64
	// Spread is the larger of the two passes' interquartile ranges, each
	// as a share of its median.
	Spread float64
	NA, NB int
	// Verdict is empty for per-layer rows, which have no bound.
	Verdict string
}

// values collects one metric's values over a pass's runs of a workload.
func values(f File, workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range f.Results {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == metric {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// judge decides an end-to-end row. A change worse than the bound is a
// regression. Otherwise, when the runs spread wider than the bound, the
// row is unresolved unless every run of B beats every run of A: a spread
// that wide cannot show "unchanged". setup_s is the exception: only its
// median counts, and only by more than setupFloor.
func judge(m SpecMetric, a, b []float64) (Row, string) {
	row := Row{Metric: m, NA: len(a), NB: len(b)}
	if len(a) == 0 || len(b) == 0 {
		return row, Unresolved
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	row.A, row.B = ma, mb
	row.Change = (mb - ma) / ma
	row.Spread = max((q3a-q1a)/ma, (q3b-q1b)/mb)
	worse := row.Change
	if m.Better == Higher {
		worse = -worse
	}
	setup := m.Name == setupMetric
	switch {
	case worse > m.Bound && !(setup && worse*ma <= setupFloor):
		return row, Worse
	case allBeat(m.Better, b, a):
		return row, Better
	case row.Spread > m.Bound && !setup:
		return row, Unresolved
	case -worse > row.Spread:
		return row, Better
	default:
		return row, Unchanged
	}
}

// allBeat reports whether every value of b is better than every value of
// a in direction better.
func allBeat(better string, b, a []float64) bool {
	for _, x := range b {
		for _, y := range a {
			if better == Lower && x >= y || better == Higher && x <= y {
				return false
			}
		}
	}
	return true
}

// Compare judges pass B against pass A for every workload and end-to-end
// metric of spec, and lists the per-layer medians beside them. It
// returns the rows and how many are regressions or unresolved.
func Compare(spec Spec, a, b File) (rows []Row, worse, unresolved int) {
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row, v := judge(m, values(a, w.Name, m.Name, false), values(b, w.Name, m.Name, false))
			row.Workload, row.Verdict = w.Name, v
			switch v {
			case Worse:
				worse++
			case Unresolved:
				unresolved++
			}
			rows = append(rows, row)
		}
		for _, m := range spec.PerLayer {
			av, bv := values(a, w.Name, m.Name, true), values(b, w.Name, m.Name, true)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			rows = append(rows, Row{Workload: w.Name, Metric: m, A: ma, B: mb, Change: (mb - ma) / ma, NA: len(av), NB: len(bv)})
		}
	}
	return rows, worse, unresolved
}

// PrintRows writes one line per row.
func PrintRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-15s %-34s %14s %14s %8s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		verdict, spread, bound := r.Verdict, fmt.Sprintf("%.1f%%", 100*r.Spread), fmt.Sprintf("%.2f", r.Metric.Bound)
		if verdict == "" {
			verdict, spread, bound = "(per-layer, no bound)", "-", "-"
		}
		fmt.Fprintf(w, "%-15s %-34s %14.4f %14.4f %+7.1f%% %7s %6s  %s (n=%d/%d)\n",
			r.Workload, r.Metric.Name, r.A, r.B, 100*r.Change, spread, bound, verdict, r.NA, r.NB)
	}
}
