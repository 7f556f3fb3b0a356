package server

import (
	"sync"
	"sync/atomic"

	"accubench/internal/crowd"
	"accubench/internal/obs"
	"accubench/internal/store"
)

// ModelBins is the binning of one model's accepted population — the
// §VI endgame: normalized-score clusters standing in for the vendor's
// undisclosed speed bins.
type ModelBins struct {
	// Model is the handset model.
	Model string `json:"model"`
	// Submissions counts every stored record for the model.
	Submissions int `json:"submissions"`
	// Accepted counts the filtered population the bins are computed over
	// (latest record per device).
	Accepted int `json:"accepted"`
	// AmbientSlope is the fitted score-per-°C slope used to normalize
	// scores to the 26 °C reference; zero when the population is too small
	// or too ambient-uniform to fit.
	AmbientSlope float64 `json:"ambient_slope_per_c"`
	// BinCount is the discovered bin count (0 until the population
	// reaches the clustering minimum).
	BinCount int `json:"bin_count"`
	// Centroids are the bins' normalized-score centers, ascending (bin 0
	// is the worst silicon).
	Centroids []float64 `json:"centroids,omitempty"`
	// Sizes are the per-bin device counts, aligned with Centroids.
	Sizes []int `json:"sizes,omitempty"`
	// Revision is the model's store revision the bins were computed at:
	// it advances with every record committed for the model, so it is
	// node-local and differs across replicas holding the same records.
	Revision uint64 `json:"revision"`
}

// Bin computations (BinnerConfig.Mode).
const (
	// BinModeSketch, the default and the only mode the server builds,
	// folds the store's streaming population sketch: O(cells) per model,
	// always current, within the tolerance contract of docs/BINNING.md.
	BinModeSketch = "sketch"
	// BinModeExact rescans the store and re-clusters the model's full
	// accepted population on every call — O(corpus), bit-exact. It is the
	// reference the goldens and the benchmark's layer timing compare the
	// sketch against; nothing serves it.
	BinModeExact = "exact"
)

// Binner computes per-model bins on demand and starts no goroutine. In
// sketch mode a read folds the model's store sketch, which every commit
// keeps current, and caches the result until the sketch revision moves,
// so a read is fresh by construction and a repeated read is a cache hit.
// In exact mode every call recomputes from the store and nothing is
// cached.
type Binner struct {
	store *store.Store
	// maxK bounds the discovered bin count.
	maxK int
	// exact selects BinModeExact.
	exact bool

	// mu guards cache: per model, the bins folded from the store sketch
	// at .Revision — served until the store's sketch revision moves past
	// it. Sketch mode only.
	mu    sync.Mutex
	cache map[string]ModelBins

	recomputes atomic.Uint64

	// Drift instrumentation, nil without BinnerConfig.Obs: the
	// silicon-lottery story as monitoring — how far each model's bin
	// centroids moved on the latest fold, and whether the bin count
	// itself changed.
	driftShift   *obs.GaugeVec
	driftBins    *obs.GaugeVec
	driftChanges *obs.Counter
	sketchFolds  *obs.Counter
	sketchHits   *obs.Counter
}

// BinnerConfig parameterizes a Binner.
type BinnerConfig struct {
	// Store is the submission store to bin. Required.
	Store *store.Store
	// MaxK bounds the discovered bin count (default 5 — the paper's
	// Nexus 5 study saw bins 0–4).
	MaxK int
	// Mode selects the computation: BinModeSketch (default) or the
	// BinModeExact reference.
	Mode string
	// Obs, when non-nil, registers the drift gauges and sketch-read
	// counters (docs/METRICS.md, "Binner").
	Obs *obs.Registry
}

// NewBinner creates a binner.
func NewBinner(cfg BinnerConfig) *Binner {
	if cfg.MaxK <= 0 {
		cfg.MaxK = 5
	}
	b := &Binner{
		store: cfg.Store,
		maxK:  cfg.MaxK,
		exact: cfg.Mode == BinModeExact,
		cache: make(map[string]ModelBins),
	}
	if cfg.Obs != nil {
		b.driftShift = cfg.Obs.GaugeVec("drift_centroid_shift_ppm",
			"mean relative centroid shift vs the previous revision, parts per million", "model")
		b.driftBins = cfg.Obs.GaugeVec("drift_bin_count",
			"discovered bin count per model", "model")
		b.driftChanges = cfg.Obs.Counter("drift_bin_count_changes_total",
			"folds that changed a model's bin count")
		b.sketchFolds = cfg.Obs.Counter("bins_sketch_recomputes_total",
			"bins computed from a fresh sketch fold")
		b.sketchHits = cfg.Obs.Counter("bins_sketch_cached_reads_total",
			"bins served from the revision-matched cache")
	}
	return b
}

// Bins returns the bins for every model, sorted by model name.
func (b *Binner) Bins() []ModelBins {
	models := b.store.Models()
	out := make([]ModelBins, 0, len(models))
	for _, m := range models {
		if mb, ok := b.ModelBins(m); ok {
			out = append(out, mb)
		}
	}
	return out
}

// ModelBins returns the current bins for one model; ok is false when
// the store holds no record for it.
func (b *Binner) ModelBins(model string) (ModelBins, bool) {
	if b.exact {
		rev, ok := b.store.SketchRevision(model)
		if !ok {
			return ModelBins{}, false
		}
		mb := exactBins(b.store, model, b.maxK)
		mb.Revision = rev
		b.recomputes.Add(1)
		return mb, true
	}
	return b.sketchBins(model)
}

// Refresh is ModelBins without the presence flag: the zero ModelBins
// (named after the model) for a model with no records.
func (b *Binner) Refresh(model string) ModelBins {
	mb, ok := b.ModelBins(model)
	if !ok {
		mb.Model = model
	}
	return mb
}

// Recomputes returns how many per-model bins have been computed rather
// than served from the cache — sketch folds plus exact recomputes.
func (b *Binner) Recomputes() uint64 { return b.recomputes.Load() }

// exactBins computes one model's bins from the store's records with
// crowd.BinScores over the accepted population (latest record per
// device): the BinModeExact reference the sketch fold is held to.
func exactBins(st *store.Store, model string, maxK int) ModelBins {
	mb := ModelBins{Model: model, Submissions: len(st.Model(model))}
	var scores, ambs []float64
	for _, r := range st.Latest(model) {
		if r.Accepted {
			scores = append(scores, r.Score)
			ambs = append(ambs, float64(r.EstimatedAmbient))
		}
	}
	mb.Accepted = len(scores)
	bins, err := crowd.BinScores(scores, ambs, maxK)
	mb.AmbientSlope = bins.Slope
	if err == nil && bins.K > 0 {
		mb.BinCount = bins.K
		mb.Centroids = bins.Bins.Centroids
		mb.Sizes = make([]int, bins.K)
		for _, lbl := range bins.Bins.Labels {
			mb.Sizes[lbl]++
		}
	}
	return mb
}
