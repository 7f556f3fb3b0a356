package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accubench/internal/fleetsim"
	"accubench/internal/ingest"
	"accubench/internal/obs"
	"accubench/internal/soc"
	"accubench/internal/units"
	"accubench/internal/wire"
)

// parseMix turns a "-fleet-mix" string like "Nexus 5=3,Google Pixel=1"
// into cohort specs whose device counts apportion total by the given
// weights (largest remainder, at least one device per cohort). An empty
// mix yields a single cohort of the fallback model.
func parseMix(mix string, fallback *soc.DeviceModel, total int) ([]fleetsim.CohortSpec, error) {
	if mix == "" {
		return []fleetsim.CohortSpec{{Model: fallback, Devices: total}}, nil
	}
	type entry struct {
		model  *soc.DeviceModel
		weight float64
	}
	var entries []entry
	var sum float64
	for _, part := range strings.Split(mix, ",") {
		name, weight := strings.TrimSpace(part), 1.0
		if k := strings.LastIndex(part, "="); k >= 0 {
			name = strings.TrimSpace(part[:k])
			w, err := strconv.ParseFloat(strings.TrimSpace(part[k+1:]), 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad -fleet-mix entry %q (want Model=weight)", part)
			}
			weight = w
		}
		model, err := soc.ModelByName(name)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{model, weight})
		sum += weight
	}
	if total < len(entries) {
		return nil, fmt.Errorf("-devices %d cannot cover %d mix cohorts", total, len(entries))
	}
	specs := make([]fleetsim.CohortSpec, len(entries))
	fractions := make([]float64, len(entries))
	assigned := 0
	for i, e := range entries {
		exact := float64(total) * e.weight / sum
		n := int(exact)
		specs[i] = fleetsim.CohortSpec{Model: e.model, Devices: n}
		fractions[i] = exact - float64(n)
		assigned += n
	}
	// Hand the remainder to the largest fractional parts.
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fractions[order[a]] > fractions[order[b]] })
	for k := 0; assigned < total; k++ {
		specs[order[k%len(order)]].Devices++
		assigned++
	}
	// No cohort may end up empty: steal from the largest.
	for i := range specs {
		for specs[i].Devices == 0 {
			big := 0
			for j := range specs {
				if specs[j].Devices > specs[big].Devices {
					big = j
				}
			}
			specs[big].Devices--
			specs[i].Devices++
		}
	}
	return specs, nil
}

// plausible runs the server's own upload validation client-side. At
// population scale the silicon lottery's log-normal tail contains
// leakage outliers whose thermal runaway pushes sensor readings past
// the ingest validator's 150 °C ceiling; a well-behaved app refuses to
// upload such a trace rather than ship a submission the server must
// reject (and which would poison its wire batch into futile retries).
func plausible(ws wire.Submission) error {
	sub := ingest.Submission{
		Device:   ws.Device,
		Model:    ws.Model,
		Score:    ws.Score,
		Cooldown: make([]ingest.CooldownPoint, len(ws.Cooldown)),
	}
	for i, p := range ws.Cooldown {
		sub.Cooldown[i] = ingest.CooldownPoint{AtSeconds: p.AtSeconds, TempC: p.TempC}
	}
	return sub.Validate()
}

// describeFleet renders the cohort mix, e.g. "Nexus 5×750000 + Google
// Pixel×250000".
func describeFleet(fl *fleetsim.Fleet) string {
	parts := make([]string, 0, len(fl.Cohorts()))
	for _, c := range fl.Cohorts() {
		parts = append(parts, fmt.Sprintf("%s×%d", c.Model().Name, c.Devices()))
	}
	return strings.Join(parts, " + ")
}

// binStat aggregates one (model, bin) population cell of a dry run.
// Thermal-runaway devices — lottery-tail leakage outliers whose
// exponential leakage–temperature feedback diverges, overflowing the
// energy ledger to +Inf — are counted separately and excluded from the
// energy mean so one outlier cannot poison the cell.
type binStat struct {
	devices  int
	runaways int
	score    float64
	energy   units.Joules
}

// dryRunFleet simulates the fleet without a server and prints the
// population study the uploads would otherwise carry: per-model, per-bin
// device counts, mean scores and mean energy — the ground truth the
// paper's Table II bands emerge from — plus the engine's throughput.
func dryRunFleet(stdout io.Writer, fl *fleetsim.Fleet, reg *obs.Registry) error {
	fmt.Fprintf(stdout, "crowdload: dry run — %d devices (%s), no uploads\n", fl.Devices(), describeFleet(fl))
	var mu sync.Mutex
	stats := make(map[string]map[int]*binStat) // model → bin → cell
	var scoreLo, scoreHi = make(map[string]float64), make(map[string]float64)
	start := time.Now()
	err := fl.RunWild(func(s fleetsim.Submission) {
		mu.Lock()
		bins := stats[s.Model]
		if bins == nil {
			bins = make(map[int]*binStat)
			stats[s.Model] = bins
			scoreLo[s.Model], scoreHi[s.Model] = s.Score, s.Score
		}
		cell := bins[int(s.Corner.Bin)]
		if cell == nil {
			cell = &binStat{}
			bins[int(s.Corner.Bin)] = cell
		}
		cell.devices++
		cell.score += s.Score
		if math.IsInf(float64(s.Energy), 0) || math.IsNaN(float64(s.Energy)) {
			cell.runaways++
		} else {
			cell.energy += s.Energy
		}
		if s.Score < scoreLo[s.Model] {
			scoreLo[s.Model] = s.Score
		}
		if s.Score > scoreHi[s.Model] {
			scoreHi[s.Model] = s.Score
		}
		mu.Unlock()
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	steps := float64(fl.Devices()) * float64(fleetsim.WildSteps)
	simulated := time.Duration(fleetsim.WildSteps) * fleetsim.ControlStep
	fmt.Fprintf(stdout, "fleet: %d devices × %d steps (%v simulated) in %v — %.1fM dev-steps/s, %.1f× real time\n",
		fl.Devices(), fleetsim.WildSteps, simulated, wall.Round(time.Millisecond),
		steps/wall.Seconds()/1e6, simulated.Seconds()/wall.Seconds())
	if g := reg.Gauge("fleet_device_steps_per_sec", ""); g.Value() > 0 {
		fmt.Fprintf(stdout, "fleet: fleet_device_steps_per_sec %d\n", g.Value())
	}

	models := make([]string, 0, len(stats))
	for m := range stats {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		bins := stats[m]
		devices, score := 0, 0.0
		ids := make([]int, 0, len(bins))
		for b, cell := range bins {
			ids = append(ids, b)
			devices += cell.devices
			score += cell.score
		}
		sort.Ints(ids)
		mean := score / float64(devices)
		spread := 0.0
		if mean > 0 {
			spread = 100 * (scoreHi[m] - scoreLo[m]) / mean
		}
		fmt.Fprintf(stdout, "%s: %d devices, score mean %.0f (min %.0f, max %.0f — %.1f%% spread)\n",
			m, devices, mean, scoreLo[m], scoreHi[m], spread)
		for _, b := range ids {
			cell := bins[b]
			line := fmt.Sprintf("  bin-%d: %7d devices, mean score %.0f",
				b, cell.devices, cell.score/float64(cell.devices))
			if sane := cell.devices - cell.runaways; sane > 0 {
				line += fmt.Sprintf(", mean energy %.1fJ", float64(cell.energy)/float64(sane))
			}
			if cell.runaways > 0 {
				line += fmt.Sprintf(" (%d thermal-runaway outliers excluded from energy)", cell.runaways)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	fmt.Fprintf(stdout, "fleet fingerprint: %016x (same seed + mix ⇒ same fingerprint at any -fleet-workers)\n", fl.Fingerprint())
	return nil
}
