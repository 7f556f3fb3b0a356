package server_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"accubench/internal/crowd"
	"accubench/internal/obs"
	"accubench/internal/server"
	"accubench/internal/stats"
	"accubench/internal/store"
	"accubench/internal/testkit"
	"accubench/internal/units"
	"accubench/internal/wire"
)

// seedPopulation writes a §VI-style crowd into the store: per model, a
// few well-separated true bins, each device's observed score biased by
// the thermal slope against its ambient, plus a sprinkle of rejected
// submissions. Returns the per-model accepted device count.
func seedPopulation(t *testing.T, st *store.Store, models []string, bins [][]float64, slope float64, perBin int, seed int64) map[string]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	accepted := make(map[string]int)
	for mi, model := range models {
		for bi, base := range bins[mi] {
			for d := 0; d < perBin; d++ {
				amb := 20 + rng.Float64()*10
				score := base*(1+0.002*(rng.Float64()-0.5)) + slope*(amb-26)
				r := store.Record{
					Device:           fmt.Sprintf("%s-b%d-d%03d", model, bi, d),
					Model:            model,
					Score:            score,
					EstimatedAmbient: units.Celsius(amb),
					Accepted:         true,
				}
				if _, err := st.Put(r); err != nil {
					t.Fatal(err)
				}
				accepted[model]++
			}
		}
		// Rejected submissions count toward Submissions, never the bins.
		for d := 0; d < 5; d++ {
			r := store.Record{
				Device:       fmt.Sprintf("%s-rej-%d", model, d),
				Model:        model,
				Score:        1,
				Accepted:     false,
				RejectReason: "test",
			}
			if _, err := st.Put(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return accepted
}

// TestSketchBinsMatchExactGolden is the tentpole's tolerance golden:
// over seed-style populations, the sketch path must agree with the
// exact batch binner on the population tallies, the discovered bin
// count, the per-bin device counts, and — within the sketch's cell
// resolution — the centroids and the ambient slope (tolerance contract
// in docs/BINNING.md).
func TestSketchBinsMatchExactGolden(t *testing.T) {
	models := []string{"Nexus 5", "Pixel 2", "Galaxy S7"}
	bins := [][]float64{
		{900, 1000, 1100}, // three bins, 10% apart
		{950, 1150},       // two bins
		{1000},            // single bin
	}
	const slope = -2.0
	st := store.New(8)
	accepted := seedPopulation(t, st, models, bins, slope, 40, 41)

	exact := server.NewBinner(server.BinnerConfig{Store: st, Mode: server.BinModeExact})
	sketch := server.NewBinner(server.BinnerConfig{Store: st, Mode: server.BinModeSketch})

	for mi, model := range models {
		em := exact.Refresh(model)
		sm, ok := sketch.ModelBins(model)
		if !ok {
			t.Fatalf("%s: no sketch bins", model)
		}
		if sm.Submissions != em.Submissions || em.Submissions != accepted[model]+5 {
			t.Errorf("%s: Submissions sketch=%d exact=%d want=%d", model, sm.Submissions, em.Submissions, accepted[model]+5)
		}
		if sm.Accepted != em.Accepted || em.Accepted != accepted[model] {
			t.Errorf("%s: Accepted sketch=%d exact=%d want=%d", model, sm.Accepted, em.Accepted, accepted[model])
		}
		if want := len(bins[mi]); em.BinCount != want || sm.BinCount != want {
			t.Fatalf("%s: BinCount sketch=%d exact=%d want=%d", model, sm.BinCount, em.BinCount, want)
		}
		for c := range em.Centroids {
			rel := math.Abs(sm.Centroids[c]-em.Centroids[c]) / em.Centroids[c]
			if rel > 0.005 {
				t.Errorf("%s bin %d: centroid sketch=%g exact=%g (rel %g > 0.5%%)", model, c, sm.Centroids[c], em.Centroids[c], rel)
			}
			if sm.Sizes[c] != em.Sizes[c] {
				t.Errorf("%s bin %d: size sketch=%d exact=%d", model, c, sm.Sizes[c], em.Sizes[c])
			}
		}
		if math.Abs(sm.AmbientSlope-em.AmbientSlope) > 0.2 {
			t.Errorf("%s: slope sketch=%g exact=%g (|diff| > 0.2)", model, sm.AmbientSlope, em.AmbientSlope)
		}
	}
}

// getModelBins reads GET /v1/bins?model=M once, with no retry.
func getModelBins(t *testing.T, client *http.Client, base, model string) server.ModelBins {
	t.Helper()
	mb, ok := fetchModelBins(t, client, base, model)
	if !ok {
		t.Fatalf("GET /v1/bins?model=%s: no bins", model)
	}
	return mb
}

// TestStreamAckBinsFresh pins the freshness contract on the standalone
// stream path: once a /v1/stream batch is acknowledged, the very next
// GET /v1/bins?model=M counts it — no polling, no sleep.
func TestStreamAckBinsFresh(t *testing.T) {
	_, base := startStandalone(t)
	client := &http.Client{}
	st, err := wire.OpenStream(client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	total := 0
	for b, size := range []int{5, 1, 3} {
		batch := make([]wire.Submission, size)
		for i := range batch {
			batch[i] = wireAccepted(t, fmt.Sprintf("fresh-%d-%d", b, i), 1000+40*float64(total+i))
		}
		ack, err := st.Do(batch)
		if err != nil {
			t.Fatal(err)
		}
		if int(ack.Committed) != size {
			t.Fatalf("batch %d ack = %+v, want %d committed", b, ack, size)
		}
		total += size
		mb := getModelBins(t, client, base, "Nexus 5")
		if mb.Submissions != total || mb.Accepted != total {
			t.Fatalf("after batch %d: bins count %d submissions / %d accepted, want %d", b, mb.Submissions, mb.Accepted, total)
		}
	}
}

// TestBinsModelQueryFoldsOnlyThatModel pins that GET /v1/bins?model=M
// folds M's sketch alone: with three freshly committed models, one
// filtered read moves the fold counter by exactly one.
func TestBinsModelQueryFoldsOnlyThatModel(t *testing.T) {
	_, base := startStandalone(t)
	client := &http.Client{}
	st, err := wire.OpenStream(client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var batch []wire.Submission
	for _, model := range []string{"Nexus 5", "Nexus 6", "Pixel"} {
		for i := 0; i < 4; i++ {
			ws := wireAccepted(t, fmt.Sprintf("%s-%d", model, i), 1000+40*float64(i))
			ws.Model = model
			batch = append(batch, ws)
		}
	}
	if ack, err := st.Do(batch); err != nil || int(ack.Committed) != len(batch) {
		t.Fatalf("ack = %+v, %v; want %d committed", ack, err, len(batch))
	}

	const folds = "crowdd_bins_sketch_recomputes_total"
	before := scrapeMetrics(t, client, base)[folds]
	getModelBins(t, client, base, "Nexus 6")
	if got := scrapeMetrics(t, client, base)[folds] - before; got != 1 {
		t.Errorf("one ?model= read folded %d sketches, want 1", got)
	}
}

// TestSketchEndpoint round-trips GET /v1/sketch: the served bytes must
// decode with stats.DecodeBinSketch and agree with the store's sketch.
func TestSketchEndpoint(t *testing.T) {
	srv, base := startStandalone(t)
	client := &http.Client{}
	policy := crowd.DefaultPolicy()
	const n = 6
	for i := 0; i < n; i++ {
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("sk-%d", i), 1000+5*float64(i), 24)
		if resp := postSubmission(t, client, base, raw); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	waitForStored(t, client, base, n)

	resp, err := client.Get(base + "/v1/sketch?model=Nexus+5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sketch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-accubench-sketch" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := stats.DecodeBinSketch(body)
	if err != nil {
		t.Fatalf("DecodeBinSketch: %v", err)
	}
	if sk.Accepted() != n || sk.Records() != n {
		t.Fatalf("decoded sketch: accepted=%d records=%d, want %d,%d", sk.Accepted(), sk.Records(), n, n)
	}
	ref, _, ok := srv.Store().SketchSnapshot("Nexus 5")
	if !ok || sk.Digest() != ref.Digest() {
		t.Fatalf("served sketch digest differs from store (ok=%v)", ok)
	}

	for path, want := range map[string]int{
		"/v1/sketch":               http.StatusBadRequest,
		"/v1/sketch?model=missing": http.StatusNotFound,
	} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestDriftGaugesExposed drives two recomputes with a shifted population
// and asserts the drift series appear in the Prometheus exposition.
func TestDriftGaugesExposed(t *testing.T) {
	st := store.New(4)
	reg := obs.NewRegistry("crowdd_")
	b := server.NewBinner(server.BinnerConfig{Store: st, Obs: reg})

	put := func(dev string, score float64) {
		t.Helper()
		if _, err := st.Put(store.Record{
			Device: dev, Model: "m", Score: score,
			EstimatedAmbient: 25, Accepted: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("lo-%d", i), 900+float64(i))
		put(fmt.Sprintf("hi-%d", i), 1100+float64(i))
	}
	b.Refresh("m")
	// Shift the population: every device resubmits ~1% higher.
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("lo-%d", i), 910+float64(i))
		put(fmt.Sprintf("hi-%d", i), 1111+float64(i))
	}
	b.Refresh("m")

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	exp := sb.String()
	for _, series := range []string{
		`crowdd_drift_bin_count{model="m"}`,
		`crowdd_drift_centroid_shift_ppm{model="m"}`,
		"crowdd_drift_bin_count_changes_total",
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	// ~1% shift ≈ 10000 ppm; require the gauge moved off zero into a
	// plausible band rather than pinning an exact value.
	var ppm int64
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, `crowdd_drift_centroid_shift_ppm{model="m"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &ppm)
		}
	}
	if ppm < 5000 || ppm > 20000 {
		t.Errorf("drift_centroid_shift_ppm = %d, want ~10000 after a 1%% shift", ppm)
	}
}

// TestBinsSortedByModel pins the unfiltered listing GET /v1/bins serves:
// every model, sorted by name, in a slice the caller owns, and a model
// whose first record was just committed shows up on the next read.
func TestBinsSortedByModel(t *testing.T) {
	st := store.New(4)
	b := server.NewBinner(server.BinnerConfig{Store: st})
	put := func(model string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := st.Put(store.Record{
				Device: fmt.Sprintf("%s-%d", model, i), Model: model,
				Score: 1000, EstimatedAmbient: 25, Accepted: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, model := range []string{"zeta", "alpha", "mid"} {
		put(model, 4)
	}
	first := b.Bins()
	want := []string{"alpha", "mid", "zeta"}
	if len(first) != len(want) {
		t.Fatalf("Bins() = %v, want models %v", first, want)
	}
	for i, mb := range first {
		if mb.Model != want[i] {
			t.Fatalf("Bins()[%d] = %s, want %s", i, mb.Model, want[i])
		}
	}
	first[0].Model = "clobbered"
	if second := b.Bins(); second[0].Model != "alpha" {
		t.Fatal("mutating a returned Bins() slice leaked into the next read")
	}
	put("aaa", 1)
	if third := b.Bins(); len(third) != 4 || third[0].Model != "aaa" || third[0].Accepted != 1 {
		t.Fatalf("Bins() after a new model's commit = %v", third)
	}
}
