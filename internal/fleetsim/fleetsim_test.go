package fleetsim

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"accubench/internal/accubench"
	"accubench/internal/battery"
	"accubench/internal/device"
	"accubench/internal/monsoon"
	"accubench/internal/sim"
	"accubench/internal/soc"
)

// TestGoldenBitIdentity is the package's referee: a 1-device fleet must
// produce a byte-identical trace, score, cooldown readings and energy
// total to a device.Device driven through the accubench runner with the
// wild quick schedule — the exact path crowd.WildDevice.Benchmark
// takes. Any drift in the batched stepper's floating-point op order
// breaks this test. Both scheme families are pinned: a static-table quad
// (Nexus 5, memoized voltages hit every plateau step) and an RBCPR
// big.LITTLE part (Nexus 6P, temperature-continuous voltages miss every
// step and exercise the LITTLE cluster path).
func TestGoldenBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		model string
		seed  int64
	}{
		{"Nexus 5", 7},
		{"Nexus 6P", 1234},
	} {
		t.Run(tc.model, func(t *testing.T) {
			model, err := soc.ModelByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}

			fl, err := New(Config{
				Seed:      tc.seed,
				Cohorts:   []CohortSpec{{Model: model, Devices: 1}},
				AmbientLo: 12,
				AmbientHi: 38,
				Record:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var subs []Submission
			if err := fl.RunWild(func(s Submission) { subs = append(subs, s) }); err != nil {
				t.Fatal(err)
			}
			if len(subs) != 1 {
				t.Fatalf("got %d submissions, want 1", len(subs))
			}
			c := fl.Cohorts()[0]

			// The reference twin: same name, corner, ambient and — through
			// the Config seams — the same RNG streams.
			sensor := sim.NewStream(tc.seed, "sensor:"+c.Name(0))
			util := sim.NewStream(tc.seed, "util:"+c.Name(0))
			mon := monsoon.New(model.Battery.Nominal)
			// The device keeps its own bench supply (KeepSource below) so
			// its EnergyDelivered is exactly the per-step drain sum — the
			// ledger the fleet keeps. Powering it from the Monitor's supply
			// would double-count the measured window, which Sample also
			// drains. Both supplies sit at the same nominal voltage, so the
			// trace is unaffected.
			supply := battery.NewBenchSupply(model.Battery.Nominal)
			dev, err := device.New(device.Config{
				Name:        c.Name(0),
				Model:       model,
				Corner:      c.Corner(0),
				Ambient:     c.Ambient(0),
				Source:      supply,
				SensorNoise: &sensor,
				UtilNoise:   &util,
			})
			if err != nil {
				t.Fatal(err)
			}
			bcfg := accubench.DefaultConfig(accubench.Unconstrained)
			bcfg.Iterations = 1
			bcfg.CooldownFixed = CooldownFixed
			bcfg.Warmup = WarmupQuick
			bcfg.Workload = WorkloadQuick
			res, err := (&accubench.Runner{Device: dev, Monitor: mon, Config: bcfg, KeepSource: true}).Run()
			if err != nil {
				t.Fatal(err)
			}
			it := res.Iterations[0]

			var want, got bytes.Buffer
			if err := dev.Trace().WriteCSV(&want); err != nil {
				t.Fatal(err)
			}
			if err := c.Recorder(0).WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				wl, gl := bytes.Split(want.Bytes(), []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
				for i := 0; i < len(wl) && i < len(gl); i++ {
					if !bytes.Equal(wl[i], gl[i]) {
						t.Fatalf("trace diverges at line %d:\n device: %s\nfleet:  %s", i+1, wl[i], gl[i])
					}
				}
				t.Fatalf("trace lengths differ: device %d lines, fleet %d lines", len(wl), len(gl))
			}
			if subs[0].Score != float64(it.Score) {
				t.Errorf("score: fleet %v, device %d", subs[0].Score, it.Score)
			}
			if !reflect.DeepEqual(subs[0].Cooldown, it.CooldownReadings) {
				t.Errorf("cooldown readings differ:\nfleet:  %v\ndevice: %v", subs[0].Cooldown, it.CooldownReadings)
			}
			if subs[0].Energy != supply.EnergyDelivered() {
				t.Errorf("energy: fleet %v, device %v", subs[0].Energy, supply.EnergyDelivered())
			}
		})
	}
}

// TestWorkerCountDeterminism pins the determinism contract: the same seed
// must produce bit-identical fleets at any worker count. Run under -race
// (make ci does) this also proves shards share no mutable state.
func TestWorkerCountDeterminism(t *testing.T) {
	n5, err := soc.ModelByName("Nexus 5")
	if err != nil {
		t.Fatal(err)
	}
	pixel, err := soc.ModelByName("Google Pixel")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (uint64, map[string]float64) {
		fl, err := New(Config{
			Seed: 42,
			Cohorts: []CohortSpec{
				{Model: n5, Devices: 24},
				{Model: pixel, Devices: 16},
			},
			AmbientLo: 12,
			AmbientHi: 38,
			Workers:   workers,
			Block:     8,
		})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		scores := make(map[string]float64)
		if err := fl.RunWild(func(s Submission) {
			mu.Lock()
			scores[s.Device] = s.Score
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		return fl.Fingerprint(), scores
	}
	baseFP, baseScores := run(1)
	if len(baseScores) != 40 {
		t.Fatalf("got %d submissions, want 40", len(baseScores))
	}
	for _, workers := range []int{4, 16} {
		fp, scores := run(workers)
		if fp != baseFP {
			t.Errorf("workers=%d: fingerprint %x != workers=1 fingerprint %x", workers, fp, baseFP)
		}
		if !reflect.DeepEqual(scores, baseScores) {
			t.Errorf("workers=%d: per-device scores differ from workers=1", workers)
		}
	}
}

// TestSeedChangesFleet guards against a degenerate Fingerprint (or a
// population that ignores its seed).
func TestSeedChangesFleet(t *testing.T) {
	n5, err := soc.ModelByName("Nexus 5")
	if err != nil {
		t.Fatal(err)
	}
	fp := func(seed int64) uint64 {
		fl, err := New(Config{
			Seed:      seed,
			Cohorts:   []CohortSpec{{Model: n5, Devices: 4}},
			AmbientLo: 12,
			AmbientHi: 38,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := fl.RunWild(func(Submission) {}); err != nil {
			t.Fatal(err)
		}
		return fl.Fingerprint()
	}
	if fp(1) == fp(2) {
		t.Fatal("different seeds produced identical fleet fingerprints")
	}
}

// TestWildSteps pins the protocol step count the throughput numbers are
// normalized by.
func TestWildSteps(t *testing.T) {
	// 1 min warmup + 10 min cooldown + 2 min workload at 100 ms steps.
	if want := 600 + 6000 + 1200; WildSteps != want {
		t.Fatalf("WildSteps = %d, want %d", WildSteps, want)
	}
}

// TestConfigValidation covers New's error paths.
func TestConfigValidation(t *testing.T) {
	n5, err := soc.ModelByName("Nexus 5")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"no cohorts":       {Seed: 1},
		"nil model":        {Seed: 1, Cohorts: []CohortSpec{{Model: nil, Devices: 1}}},
		"zero devices":     {Seed: 1, Cohorts: []CohortSpec{{Model: n5, Devices: 0}}},
		"inverted ambient": {Seed: 1, Cohorts: []CohortSpec{{Model: n5, Devices: 1}}, AmbientLo: 30, AmbientHi: 20},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}
