// Package crowd implements the paper's §VI future-work plan end to end:
// "introduce a benchmarking app on Google Play with the express intent of
// gathering the necessary data for binning CPUs … The only parameters that
// we cannot control for in the wild are ambient temperature and software
// stack. However, preliminary results on using the cooldown phase as an
// estimate of ambient temperature are encouraging. This, in addition to
// strict filters, should enable us to compare different devices from across
// the world."
//
// A Study simulates that app: a population of same-model devices, each at
// an unknown ambient temperature, runs ACCUBENCH and submits its score plus
// its cooldown trace. The backend then
//
//  1. estimates each submission's ambient from the cooldown decay
//     (Aitken extrapolation of the exponential tail),
//  2. filters submissions whose estimated ambient falls outside an
//     acceptance window ("strict filters"),
//  3. ranks the surviving devices and bins them by clustering.
package crowd

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"accubench/internal/accubench"
	"accubench/internal/cluster"
	"accubench/internal/fleet"
	"accubench/internal/silicon"
	"accubench/internal/sim"
	"accubench/internal/soc"
	"accubench/internal/stats"
	"accubench/internal/units"
)

// Submission is what one in-the-wild device uploads.
type Submission struct {
	// Device is the unit's anonymous identifier.
	Device string
	// Score is the ACCUBENCH performance score.
	Score float64
	// CooldownReadings is the cooldown sensor trace.
	CooldownReadings []accubench.CooldownSample
	// EstimatedAmbient is the backend's ambient estimate from the trace.
	EstimatedAmbient units.Celsius
	// NormalizedScore is the score adjusted to the 26 °C reference ambient
	// using the slope fitted across accepted submissions; zero until the
	// backend pass runs.
	NormalizedScore float64
	// Accepted reports whether the submission survived the filters.
	Accepted bool

	// trueAmbient and trueLeakage are ground truth the backend never sees;
	// the study keeps them to evaluate estimator and ranking quality.
	trueAmbient units.Celsius
	trueLeakage float64
}

// TrueAmbient exposes the hidden ground truth for evaluation.
func (s Submission) TrueAmbient() units.Celsius { return s.trueAmbient }

// TrueLeakage exposes the hidden process corner for evaluation.
func (s Submission) TrueLeakage() float64 { return s.trueLeakage }

// EstimateAmbient fits the cooldown's exponential decay toward ambient and
// extrapolates its asymptote. With geometric decay T(t) = amb + A·q^t,
// three equally spaced readings give amb = (r0·r2 − r1²)/(r0 + r2 − 2·r1)
// (Aitken's Δ²). The tail of the trace is used, where the single-
// exponential model holds best. It returns an error when the trace is too
// short or too flat to extrapolate.
func EstimateAmbient(readings []accubench.CooldownSample) (units.Celsius, error) {
	if len(readings) < 12 {
		return 0, fmt.Errorf("crowd: cooldown trace too short (%d polls)", len(readings))
	}
	// The cooldown has two regimes: a fast die→case merge (tens of seconds)
	// whose asymptote is the *case* temperature, and the slow case→ambient
	// decay (minutes) whose asymptote is the ambient we want. Skip the fast
	// regime, then split the remainder into three equal blocks: block means
	// of a geometric decay are themselves geometric, so Aitken's Δ² on the
	// three means extrapolates the asymptote exactly for clean decay while
	// averaging the tsens noise down by √blockLen.
	skip := 0
	for skip < len(readings) && readings[skip].At < 2*time.Minute {
		skip++
	}
	tail := readings[skip:]
	if len(tail) < 9 {
		// Short traces (quick tests, synthetic fixtures): use what's there
		// beyond the first half.
		tail = readings[len(readings)/2:]
	}
	if len(tail) < 9 {
		return 0, fmt.Errorf("crowd: cooldown tail too short (%d polls)", len(tail))
	}
	blockLen := len(tail) / 3
	mean := func(b []accubench.CooldownSample) float64 {
		var sum float64
		for _, s := range b {
			sum += float64(s.Reading)
		}
		return sum / float64(len(b))
	}
	b0 := mean(tail[0:blockLen])
	b1 := mean(tail[blockLen : 2*blockLen])
	b2 := mean(tail[2*blockLen : 3*blockLen])
	den := b0 + b2 - 2*b1
	if math.Abs(den) < 0.05 || b0-b2 < 0.2 {
		return 0, fmt.Errorf("crowd: cooldown trace too flat to extrapolate")
	}
	amb := (b0*b2 - b1*b1) / den
	if amb < -20 || amb > 60 {
		return 0, fmt.Errorf("crowd: extrapolated ambient %.1f°C implausible", amb)
	}
	if amb > b2 {
		// The asymptote cannot sit above the final block of a cooling trace;
		// clamp pathological noise outcomes to the last mean.
		amb = b2
	}
	return units.Celsius(amb), nil
}

// StudyConfig parameterizes a crowdsourced study.
type StudyConfig struct {
	// ModelName is the handset model under study.
	ModelName string
	// Population is how many devices submit.
	Population int
	// AmbientLo and AmbientHi bound the wild ambients (uniform).
	AmbientLo, AmbientHi units.Celsius
	// AcceptLo and AcceptHi bound the filter window on the *estimated*
	// ambient; submissions outside are rejected.
	AcceptLo, AcceptHi units.Celsius
	// Sigma is the population's leakage log-normal sigma. The paper's
	// fleets imply a wide spread (the calibrated Nexus 5 bins span ≈3×
	// leakage); narrow populations are largely *equalized* by voltage
	// binning and rank flat.
	Sigma float64
	// BinNoise is the fab's binning-measurement noise (see silicon.Lottery).
	// An ideal fab (zero) compensates leakage almost perfectly and leaves
	// little to rank; the paper's observable 14% spread implies substantial
	// miss-binning.
	BinNoise float64
	// IdleBias is the backend's correction for the idle-leakage floor: an
	// idle die asymptotes at ambient *plus* its idle dissipation times the
	// body's thermal resistance, so raw extrapolations run warm by a
	// degree or two. Zero means no correction.
	IdleBias float64
	// Seed drives everything.
	Seed int64
	// Quick shortens the per-device benchmark.
	Quick bool
}

// DefaultStudyConfig returns a plausible worldwide Nexus 5 study.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		ModelName:  "Nexus 5",
		Population: 40,
		IdleBias:   1.5,
		AmbientLo:  12,
		AmbientHi:  38,
		AcceptLo:   20,
		AcceptHi:   30,
		Sigma:      0.55,
		BinNoise:   0.35,
		Seed:       1,
		Quick:      true,
	}
}

// Validate checks the configuration.
func (c StudyConfig) Validate() error {
	if c.Population <= 0 {
		return fmt.Errorf("crowd: population %d", c.Population)
	}
	if c.AmbientHi <= c.AmbientLo {
		return fmt.Errorf("crowd: ambient window [%v, %v] empty", c.AmbientLo, c.AmbientHi)
	}
	if c.AcceptHi <= c.AcceptLo {
		return fmt.Errorf("crowd: acceptance window [%v, %v] empty", c.AcceptLo, c.AcceptHi)
	}
	if c.Sigma < 0 {
		return fmt.Errorf("crowd: negative sigma %v", c.Sigma)
	}
	if _, err := soc.ModelByName(c.ModelName); err != nil {
		return err
	}
	return nil
}

// Result is the backend's view after collection, filtering and ranking.
type Result struct {
	// Submissions holds every upload, accepted or not, in submission order.
	Submissions []Submission
	// Accepted counts the survivors.
	Accepted int
	// EstimationMAE is the mean absolute error of the ambient estimator
	// over submissions where estimation succeeded, in °C.
	EstimationMAE float64
	// RankCorrelation is Kendall's τ between true leakage and the accepted
	// submissions' ambient-normalized scores — silicon quality should
	// predict the corrected score, so τ should be clearly negative.
	RankCorrelation float64
	// AmbientSlope is the fitted score-per-°C slope used for normalization
	// (negative: hotter places score lower).
	AmbientSlope float64
	// Bins is the cluster assignment over accepted scores.
	Bins cluster.Assignment
	// BinCount is the discovered bin count.
	BinCount int
}

// Run executes the study.
func Run(cfg StudyConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	model, err := soc.ModelByName(cfg.ModelName)
	if err != nil {
		return Result{}, err
	}
	src := sim.NewSource(cfg.Seed, "crowd-study")
	lottery := silicon.Lottery{Sigma: cfg.Sigma, Bins: model.SoC.Bins, BinNoise: cfg.BinNoise}
	corners, err := lottery.Draw(src, cfg.Population)
	if err != nil {
		return Result{}, err
	}

	var out Result
	for i, corner := range corners {
		amb := units.Celsius(src.Uniform(float64(cfg.AmbientLo), float64(cfg.AmbientHi)))
		w := WildDevice{
			Unit:    fleet.Unit{Name: fmt.Sprintf("wild-%03d", i), ModelName: model.Name, Corner: corner},
			Ambient: amb,
			Seed:    cfg.Seed*1000 + int64(i),
			Quick:   cfg.Quick,
		}
		sub, err := w.Benchmark()
		if err != nil {
			return Result{}, fmt.Errorf("crowd: device %d: %w", i, err)
		}
		out.Submissions = append(out.Submissions, sub)
	}

	// Backend pass 1: estimate ambients and filter — the same per-submission
	// Policy path a streaming backend applies to each upload.
	policy := cfg.Policy()
	var absErr []float64
	var accIdx []int
	var accScores, accAmbs []float64
	for i := range out.Submissions {
		s := &out.Submissions[i]
		est, accepted, err := policy.Evaluate(s.CooldownReadings)
		if err != nil {
			s.Accepted = false
			continue
		}
		s.EstimatedAmbient = est
		absErr = append(absErr, math.Abs(est.Delta(s.trueAmbient)))
		if accepted {
			s.Accepted = true
			out.Accepted++
			accIdx = append(accIdx, i)
			accScores = append(accScores, s.Score)
			accAmbs = append(accAmbs, float64(est))
		}
	}
	out.EstimationMAE = stats.Mean(absErr)

	// Backend pass 2: normalize scores to the 26 °C reference with the
	// slope fitted across accepted submissions — ambient is the dominant
	// confounder even inside the acceptance window — and bin them.
	bins, err := BinScores(accScores, accAmbs, 5)
	if err != nil {
		return Result{}, err
	}
	out.AmbientSlope = bins.Slope
	out.Bins = bins.Bins
	out.BinCount = bins.K
	accLeaks := make([]float64, len(accIdx))
	for j, i := range accIdx {
		out.Submissions[i].NormalizedScore = bins.Normalized[j]
		accLeaks[j] = out.Submissions[i].trueLeakage
	}
	if len(accIdx) >= 2 {
		out.RankCorrelation = kendallTau(accLeaks, bins.Normalized)
	}
	return out, nil
}

// MinClusterPop is the smallest accepted population worth clustering.
const MinClusterPop = 4

// Binning is one accepted population's bins: its scores normalized to
// the 26 °C reference ambient, then clustered.
type Binning struct {
	// Normalized holds the normalized scores, aligned with the input.
	Normalized []float64
	// Slope is the fitted score-per-°C slope; zero when the population is
	// too small or too ambient-uniform to fit.
	Slope float64
	// Bins is the cluster assignment over Normalized and K the discovered
	// bin count; both are zero below MinClusterPop.
	Bins cluster.Assignment
	K    int
}

// BinScores is the backend's binning pass, shared by Run and the crowd
// service's exact binner. Once 3 scores are accepted and their ambients
// span more than 0.5 °C, it fits the score-per-°C slope and normalizes
// every score to 26 °C; an ambient-uniform population leaves the slope
// unidentifiable and needs no normalization anyway. Once MinClusterPop
// are accepted, it clusters the normalized scores into at most maxK bins
// (silhouette-selected k, exact 1-D k-means). On a clustering error the
// normalization is still returned.
func BinScores(scores, ambients []float64, maxK int) (Binning, error) {
	b := Binning{Normalized: append([]float64(nil), scores...)}
	if len(scores) >= 3 && slices.Max(ambients)-slices.Min(ambients) > 0.5 {
		_, b.Slope = stats.LinearFit(ambients, scores)
		for i := range b.Normalized {
			b.Normalized[i] = scores[i] - b.Slope*(ambients[i]-26)
		}
	}
	if len(scores) < MinClusterPop {
		return b, nil
	}
	k, err := cluster.ChooseK(b.Normalized, maxK)
	if err != nil {
		return b, err
	}
	asg, err := cluster.KMeans1D(b.Normalized, k)
	if err != nil {
		return b, err
	}
	b.Bins, b.K = asg, k
	return b, nil
}

// kendallTau computes Kendall's rank correlation between xs and ys.
func kendallTau(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	var concordant, discordant int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx*dy > 0:
				concordant++
			case dx*dy < 0:
				discordant++
			}
		}
	}
	total := n * (n - 1) / 2
	if total == 0 {
		return 0
	}
	return float64(concordant-discordant) / float64(total)
}

// Ranking returns the accepted submissions sorted best-first.
func (r Result) Ranking() []Submission {
	var acc []Submission
	for _, s := range r.Submissions {
		if s.Accepted {
			acc = append(acc, s)
		}
	}
	sort.Slice(acc, func(i, j int) bool { return acc[i].NormalizedScore > acc[j].NormalizedScore })
	return acc
}
