package server_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"accubench/internal/server"
	"accubench/internal/store"
	"accubench/internal/units"
)

// TestBinsReadLatencyBench measures the cost of serving fresh bins
// after a commit, exact recompute vs sketch fold, across a corpus-size
// sweep (devices spread over benchModels models — the realistic shape:
// many models, thousands of devices each). Each measured read follows
// one Put, so both paths pay their real invalidation cost: the exact
// path rescans and re-clusters the model's whole population, the sketch
// path re-folds O(cells). Results land in $BENCH_BINS_OUT (BENCH_10.json
// via scripts/bench_bins.sh; ns_per_op regresses upward and
// speedup_vs_exact downward in scripts/bench_diff.sh). Skipped unless
// the env var is set — it is a measurement, not a unit test.
func TestBinsReadLatencyBench(t *testing.T) {
	out := os.Getenv("BENCH_BINS_OUT")
	if out == "" {
		t.Skip("set BENCH_BINS_OUT to run the bins read-latency benchmark")
	}

	type row struct {
		name    string
		nsPerOp float64
		speedup float64
	}
	var rows []row
	for _, corpus := range []int{1_000, 10_000, 100_000} {
		st := seedBenchCorpus(t, corpus)
		// Iteration counts scale inversely with expected cost: the exact
		// path re-clusters 10% of the corpus per read, so small corpora
		// need many rounds to average out scheduler jitter while the 100k
		// sweep (seconds per read) can afford only a few.
		exactIters := 40
		if corpus >= 10_000 {
			exactIters = 5
		}
		if corpus >= 100_000 {
			exactIters = 4
		}
		exactNs := benchBinsRead(t, st, server.BinModeExact, exactIters)
		sketchNs := benchBinsRead(t, st, server.BinModeSketch, 30)
		speedup := exactNs / sketchNs
		t.Logf("bins corpus=%d: exact %.0f ns/op, sketch %.0f ns/op, %.1fx",
			corpus, exactNs, sketchNs, speedup)
		label := fmt.Sprintf("%dk", corpus/1000)
		rows = append(rows,
			row{name: "bins-read-exact-" + label, nsPerOp: exactNs},
			row{name: "bins-read-sketch-" + label, nsPerOp: sketchNs, speedup: speedup},
		)
	}

	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "{\n  \"bins\": [\n")
	for i, r := range rows {
		comma := ","
		if i == len(rows)-1 {
			comma = ""
		}
		if r.speedup > 0 {
			fmt.Fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"speedup_vs_exact\": %.1f}%s\n",
				r.name, r.nsPerOp, r.speedup, comma)
		} else {
			fmt.Fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.0f}%s\n",
				r.name, r.nsPerOp, comma)
		}
	}
	fmt.Fprintf(f, "  ]\n}\n")
	t.Logf("wrote %s", out)
}

// benchModels spreads the corpus over this many models; reads target one
// model, so each read's population is corpus/benchModels devices.
const benchModels = 10

// seedBenchCorpus stores `corpus` accepted devices across benchModels
// models, three true speed bins per model with the thermal slope baked
// into every observation.
func seedBenchCorpus(t *testing.T, corpus int) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	st := store.New(0)
	perModel := corpus / benchModels
	bases := []float64{900, 1000, 1100}
	const slope = -2.0
	var recs []store.Record
	for m := 0; m < benchModels; m++ {
		model := fmt.Sprintf("bench-model-%02d", m)
		for d := 0; d < perModel; d++ {
			amb := 20 + rng.Float64()*10
			base := bases[d%len(bases)]
			recs = append(recs, store.Record{
				Device:           fmt.Sprintf("%s-d%06d", model, d),
				Model:            model,
				Score:            base*(1+0.002*(rng.Float64()-0.5)) + slope*(amb-26),
				EstimatedAmbient: units.Celsius(amb),
				Accepted:         true,
				Seq:              uint64(len(recs) + 1),
			})
		}
	}
	// Batch through the WAL-shaped path; it is the production commit
	// route and an order of magnitude faster to seed with.
	for off := 0; off < len(recs); off += 1024 {
		end := off + 1024
		if end > len(recs) {
			end = len(recs)
		}
		if err := st.PutSeqBatch(recs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// benchBinsRead times serving fresh bins for one model right after a
// commit touched it and reports the fastest round observed. Minimum,
// not mean: GC pauses and scheduler preemption only ever inflate a
// round, so the min is the stable estimate of the path's intrinsic
// cost — the mean was jittering 25% run to run, tripping the 10%
// bench_diff tolerance on pure noise.
func benchBinsRead(t *testing.T, st *store.Store, mode string, iters int) float64 {
	t.Helper()
	b := server.NewBinner(server.BinnerConfig{Store: st, Mode: mode})
	const model = "bench-model-00"
	// Warm once so allocation of cold caches is not in the measurement.
	b.Refresh(model)
	best := time.Duration(-1)
	for i := 0; i < iters; i++ {
		r := store.Record{
			Device:           fmt.Sprintf("bench-extra-%s-%d", mode, i),
			Model:            model,
			Score:            1000,
			EstimatedAmbient: 25,
			Accepted:         true,
		}
		if _, err := st.Put(r); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		mb := b.Refresh(model)
		d := time.Since(t0)
		if best < 0 || d < best {
			best = d
		}
		if mb.Accepted == 0 {
			t.Fatalf("%s: empty bins mid-bench", mode)
		}
	}
	return float64(best.Nanoseconds())
}
