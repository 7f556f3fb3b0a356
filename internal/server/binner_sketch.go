package server

import (
	"math"

	"accubench/internal/cluster"
	"accubench/internal/stats"
)

// sketchBins serves one model's bins from the store's population sketch.
// The fold is cached per model and keyed by the store's sketch revision:
// a read whose revision still matches is a pure cache hit, and the first
// read after any commit for the model re-folds O(cells), never
// O(corpus).
func (b *Binner) sketchBins(model string) (ModelBins, bool) {
	rev, ok := b.store.SketchRevision(model)
	if !ok {
		return ModelBins{}, false
	}
	b.mu.Lock()
	cached, hit := b.cache[model]
	b.mu.Unlock()
	if hit && cached.Revision == rev {
		if b.sketchHits != nil {
			b.sketchHits.Inc()
		}
		return cached, true
	}

	sk, rev, ok := b.store.SketchSnapshot(model)
	if !ok {
		return ModelBins{}, false
	}
	mb := binsFromSketch(model, sk, b.maxK)
	mb.Revision = rev
	b.recomputes.Add(1)
	if b.sketchFolds != nil {
		b.sketchFolds.Inc()
	}

	b.mu.Lock()
	old, hadOld := b.cache[model]
	// Concurrent reads race to fill the cache; the highest revision wins
	// so a slow fold never clobbers a fresher one.
	published := !hadOld || old.Revision <= mb.Revision
	if published {
		b.cache[model] = mb
	} else {
		mb = old
	}
	b.mu.Unlock()
	if published {
		b.noteDrift(old, hadOld, mb)
	}
	return mb, true
}

// binsFromSketch clusters a population sketch into ModelBins — the
// sketch-path mirror of exactBins, operating on weighted cell
// representatives instead of raw records. Same shape: fit the ambient
// slope (AmbientFit applies the exact path's identifiability gate),
// normalize every cell's score to the 26 °C reference, then cluster with
// the weighted exact k-means. Agreement with the exact path is bounded
// by the sketch's cell resolution; docs/BINNING.md states the tolerance
// contract the goldens enforce.
func binsFromSketch(model string, sk *stats.BinSketch, maxK int) ModelBins {
	mb := ModelBins{
		Model:       model,
		Submissions: int(sk.Records()),
		Accepted:    int(sk.Accepted()),
	}
	slope, fitted := sk.AmbientFit()
	if fitted {
		mb.AmbientSlope = slope
	}
	pts := sk.Points()
	if mb.Accepted < minClusterPop || len(pts) == 0 {
		return mb
	}
	wpts := make([]cluster.WeightedPoint, len(pts))
	for i, p := range pts {
		wpts[i] = cluster.WeightedPoint{
			Value:  p.Score - slope*(p.Ambient-26),
			Weight: p.Weight,
		}
	}
	k, err := cluster.ChooseKWeighted(wpts, maxK)
	if err != nil {
		return mb
	}
	asg, err := cluster.KMeans1DWeighted(wpts, k)
	if err != nil {
		return mb
	}
	mb.BinCount = k
	mb.Centroids = asg.Centroids
	mb.Sizes = make([]int, k)
	for c, w := range asg.Sizes {
		mb.Sizes[c] = int(w)
	}
	return mb
}

// noteDrift publishes the drift gauges for a freshly computed binning:
// the current bin count, whether it changed, and the mean relative
// centroid shift vs the previous revision in parts per million — the
// silicon-lottery population moving, told as monitoring. No-op without
// BinnerConfig.Obs.
func (b *Binner) noteDrift(old ModelBins, hadOld bool, mb ModelBins) {
	if b.driftBins == nil {
		return
	}
	b.driftBins.With(mb.Model).Set(int64(mb.BinCount))
	if !hadOld {
		return
	}
	if old.BinCount != mb.BinCount {
		b.driftChanges.Inc()
	}
	n := len(old.Centroids)
	if len(mb.Centroids) < n {
		n = len(mb.Centroids)
	}
	if n == 0 {
		return
	}
	var rel float64
	for i := 0; i < n; i++ {
		if old.Centroids[i] != 0 {
			rel += math.Abs(mb.Centroids[i]-old.Centroids[i]) / math.Abs(old.Centroids[i])
		}
	}
	b.driftShift.With(mb.Model).Set(int64(rel / float64(n) * 1e6))
}
