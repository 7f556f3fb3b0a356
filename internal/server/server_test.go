package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/fleet"
	"accubench/internal/ingest"
	"accubench/internal/store"
	"accubench/internal/units"
)

// newTestServer assembles a backend and serves it over httptest.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Shards:     8,
		Workers:    2,
		QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		cancel()
	})
	return s, ts
}

// postSubmission uploads one wire payload and returns the status code.
func postSubmission(t *testing.T, ts *httptest.Server, raw []byte) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/submissions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// getBins fetches and decodes GET /v1/bins.
func getBins(t *testing.T, ts *httptest.Server) []ModelBins {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/bins")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/bins = %d", resp.StatusCode)
	}
	var out struct {
		Models []ModelBins `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Models
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// syntheticUpload builds a wire payload with a clean geometric cooldown
// decay toward amb.
func syntheticUpload(t *testing.T, device, model string, score, amb float64) []byte {
	t.Helper()
	sub := ingest.Submission{Device: device, Model: model, Score: score}
	delta := 70 - amb
	for i := 0; i < 40; i++ {
		sub.Cooldown = append(sub.Cooldown, ingest.CooldownPoint{
			AtSeconds: float64(i+1) * 5,
			TempC:     amb + delta*math.Pow(0.93, float64(i+1)),
		})
	}
	raw, err := ingest.Marshal(sub.Device, sub.Model, sub.Score, sub.Readings())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestServerEndToEndSyntheticPopulation(t *testing.T) {
	s, ts := newTestServer(t)

	// Two clearly separated score clusters inside the acceptance window,
	// plus one hot-climate reject and one garbage upload.
	const model = "Nexus 5"
	var accepted int
	for i := 0; i < 6; i++ {
		amb := 23 + float64(i%5)*0.8
		low := syntheticUpload(t, fmt.Sprintf("low-%d", i), model, 1000+float64((i*7)%20), amb)
		high := syntheticUpload(t, fmt.Sprintf("high-%d", i), model, 1600+float64((i*7)%20), amb)
		if code := postSubmission(t, ts, low); code != http.StatusAccepted {
			t.Fatalf("POST low-%d = %d", i, code)
		}
		if code := postSubmission(t, ts, high); code != http.StatusAccepted {
			t.Fatalf("POST high-%d = %d", i, code)
		}
		accepted += 2
	}
	if code := postSubmission(t, ts, syntheticUpload(t, "hot", model, 1200, 39)); code != http.StatusAccepted {
		t.Fatalf("POST hot = %d", code)
	}
	if code := postSubmission(t, ts, []byte("{nope")); code != http.StatusAccepted {
		t.Fatalf("POST garbage = %d (malformed uploads are dropped by the pipeline, not the handler)", code)
	}

	// The pipeline drains behind the 202s: both clusters discovered over
	// the accepted population. A 202 only means enqueued and the stages
	// run several workers, so the hot reject, posted last, may be stored
	// after every accepted upload: wait for it too.
	waitFor(t, 3*time.Second, "bins to settle", func() bool {
		for _, mb := range getBins(t, ts) {
			if mb.Model == model && mb.Accepted == accepted && mb.BinCount == 2 && mb.Submissions == accepted+1 {
				return true
			}
		}
		return false
	})
	bins := getBins(t, ts)
	if len(bins) != 1 {
		t.Fatalf("bins for %d models, want 1", len(bins))
	}
	mb := bins[0]
	if mb.Submissions != accepted+1 { // the hot reject is stored too
		t.Errorf("Submissions = %d, want %d", mb.Submissions, accepted+1)
	}
	if mb.Centroids[0] > mb.Centroids[1] {
		t.Errorf("centroids not ascending: %v", mb.Centroids)
	}
	if mb.Centroids[0] < 900 || mb.Centroids[0] > 1150 || mb.Centroids[1] < 1500 || mb.Centroids[1] > 1750 {
		t.Errorf("centroids %v far from the planted clusters", mb.Centroids)
	}
	if mb.Sizes[0] != 6 || mb.Sizes[1] != 6 {
		t.Errorf("bin sizes = %v, want [6 6]", mb.Sizes)
	}

	// With no new commits GET /v1/bins serves the revision-matched
	// cache: hammering it must not recompute.
	before := s.Binner().Recomputes()
	for i := 0; i < 50; i++ {
		getBins(t, ts)
	}
	if after := s.Binner().Recomputes(); after != before {
		t.Errorf("%d recomputes while serving cached bins", after-before)
	}

	// The hot-climate device is stored, rejected, and visible.
	resp, err := http.Get(ts.URL + "/v1/devices/hot")
	if err != nil {
		t.Fatal(err)
	}
	var rec store.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.Accepted || rec.RejectReason == "" || rec.EstimatedAmbient < 35 {
		t.Errorf("hot device record = %+v", rec)
	}

	// Unknown device and unknown model 404.
	if resp, err := http.Get(ts.URL + "/v1/devices/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown device = %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/bins?model=iPhone"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET bins for unknown model = %d", resp.StatusCode)
		}
	}

	// Health and metrics.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
			t.Errorf("healthz = %d %q", resp.StatusCode, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		for _, want := range []string{
			fmt.Sprintf("crowdd_stored_total %d", accepted+1),
			"crowdd_decode_errors_total 1",
			"crowdd_rejected_total 1",
			"crowdd_store_models 1",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %q:\n%s", want, text)
			}
		}
	}
}

// TestServerSimulatedFleet drives the backend with real ACCUBENCH runs: a
// small simulated Nexus 5 fleet benchmarks in the wild and uploads
// concurrently, then the bins cover the accepted population once the
// pipeline drains.
func TestServerSimulatedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated fleet")
	}
	_, ts := newTestServer(t)

	units_ := append(fleet.Nexus5Units(), fleet.Nexus5Bin4())
	// Benign ambients: every unit lands inside the acceptance window once
	// the idle bias is corrected. The leakiest chip (bin 4) idles hottest
	// and estimates a few degrees warm, so keep its climate mild.
	ambients := []units.Celsius{22, 23.5, 25, 26.5, 24}

	var wg sync.WaitGroup
	for i, u := range units_ {
		wg.Add(1)
		go func(i int, u fleet.Unit) {
			defer wg.Done()
			w := crowd.WildDevice{Unit: u, Ambient: ambients[i], Seed: int64(100 + i), Quick: true}
			sub, err := w.Benchmark()
			if err != nil {
				t.Error(err)
				return
			}
			raw, err := ingest.Marshal(sub.Device, u.ModelName, sub.Score, sub.CooldownReadings)
			if err != nil {
				t.Error(err)
				return
			}
			if code := postSubmission(t, ts, raw); code != http.StatusAccepted {
				t.Errorf("%s: POST = %d", u.Name, code)
			}
		}(i, u)
	}
	wg.Wait()

	want := len(units_)
	waitFor(t, 5*time.Second, "fleet bins to settle", func() bool {
		for _, mb := range getBins(t, ts) {
			if mb.Model == "Nexus 5" && mb.Submissions == want {
				return true
			}
		}
		return false
	})
	bins := getBins(t, ts)
	mb := bins[0]
	if mb.Accepted != want {
		t.Errorf("accepted %d of %d benign-climate submissions", mb.Accepted, want)
	}
	if mb.BinCount < 1 || mb.BinCount > 5 {
		t.Errorf("BinCount = %d", mb.BinCount)
	}
	// Every unit's verdict is visible.
	for _, u := range units_ {
		resp, err := http.Get(ts.URL + "/v1/devices/" + u.Name)
		if err != nil {
			t.Fatal(err)
		}
		var rec store.Record
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !rec.Accepted {
			t.Errorf("%s rejected: %s (est %v)", u.Name, rec.RejectReason, rec.EstimatedAmbient)
		}
	}
}

func TestServerShutdownRefusesUploads(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	code := postSubmission(t, ts, syntheticUpload(t, "d", "Nexus 5", 100, 24))
	if code != http.StatusServiceUnavailable {
		t.Errorf("POST after Close = %d, want 503", code)
	}
}
