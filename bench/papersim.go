package bench

import (
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"accubench/internal/fleetsim"
	"accubench/internal/soc"
)

const (
	// paperFleetPerSec is the fleet size per second of run length, split
	// evenly over Models (8000 devices in a ten-second run).
	paperFleetPerSec = 800
	// paperBuilds is how many fleets paper-sim builds, each a set-up
	// sample; the first paperReps of them run, each a capacity sample.
	paperBuilds = 8
	paperReps   = 2
	// paperRegensPerSec is how many cold `experiments -run all`
	// regenerations run per second of run length (at least two, so their
	// outputs can be compared): twenty in a ten-second run, so that p90
	// is not just the slowest one. Thirty did not steady it: the
	// machine's speed drifts between runs by more than the regenerations
	// within a run differ.
	paperRegensPerSec = 2
	// determinismPerModel sizes the fleet run at one and at two workers
	// to check that the worker count never changes results.
	determinismPerModel = 32
)

// fleetConfig is paper-sim's fleet: perModel devices of each of Models at
// crowdload's wild ambient range.
func fleetConfig(seed int64, perModel, workers int) (fleetsim.Config, error) {
	cfg := fleetsim.Config{Seed: seed, AmbientLo: 12, AmbientHi: 38, Workers: workers}
	for _, name := range Models {
		m, err := soc.ModelByName(name)
		if err != nil {
			return cfg, err
		}
		cfg.Cohorts = append(cfg.Cohorts, fleetsim.CohortSpec{Model: m, Devices: perModel})
	}
	return cfg, nil
}

// runPaperSim is paper-sim: the paper reproduction and the fleet engine,
// with no server. Its operation for latency is one cold regeneration of
// every table and figure (`experiments -run all`); its capacity is the
// fleet engine's wild-protocol throughput in devices per second.
func runPaperSim(e *runEnv) error {
	perModel := max(1, e.seconds(paperFleetPerSec)/len(Models))
	devices := perModel * len(Models)
	cfg, err := fleetConfig(e.cfg.Seed, perModel, 0)
	if err != nil {
		return err
	}
	// Set-up is building a fleet: its lottery draws and array layout.
	// The first paperReps fleets built go on to run; the memory they hold
	// is the live heap each adds.
	var setups []time.Duration
	var fleets []*fleetsim.Fleet
	var mems []float64
	for r := 0; r < paperBuilds; r++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fl, err := fleetsim.New(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		if r < paperReps {
			runtime.GC()
			runtime.ReadMemStats(&m1)
			mems = append(mems, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/(1<<20))
			fleets = append(fleets, fl)
		}
	}
	e.reportSetup(setups)
	e.report("mem_mb", median(mems), len(mems))

	var rates []float64
	var prints []uint64
	for _, fl := range fleets {
		var emitted atomic.Int64
		t0 := time.Now()
		err := fl.RunWild(func(fleetsim.Submission) { emitted.Add(1) })
		took := time.Since(t0)
		failed := 0
		if err != nil || emitted.Load() != int64(devices) {
			failed = 1
			e.logf("fleet run: %v, %d of %d devices emitted", err, emitted.Load(), devices)
		}
		e.count(1, failed)
		rates = append(rates, float64(devices)/took.Seconds())
		prints = append(prints, fl.Fingerprint())
	}
	best := percentile(rates, 100)
	e.report("capacity_per_s", best, len(rates))
	e.logf("fleet: %.0f devices/s (%.2fM device-steps/s) over %d devices", best, best*float64(fleetsim.WildSteps)/1e6, devices)
	var err1 error
	for _, p := range prints[1:] {
		if p != prints[0] {
			err1 = fmt.Errorf("fleet fingerprints differ across reps: %x", prints)
		}
	}
	e.check("fleet.reps_identical", err1)
	e.check("fleet.workers_identical", checkWorkers(e.cfg.Seed))

	regens := max(2, e.seconds(paperRegensPerSec))
	var walls []float64
	var first []byte
	var err2 error
	for i := 0; i < regens; i++ {
		var out bytes.Buffer
		cmd := exec.CommandContext(e.ctx, e.experiments, "-run", "all", "-seed", strconv.FormatInt(e.cfg.Seed, 10))
		cmd.Stdout = &out
		cmd.Stderr = &out
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		e.count(1, 0)
		if err != nil {
			return fmt.Errorf("experiments -run all: %v: %s", err, out.Bytes())
		}
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		if first == nil {
			first = out.Bytes()
		} else if !bytes.Equal(first, out.Bytes()) && err2 == nil {
			err2 = fmt.Errorf("regeneration %d printed different output than the first", i+1)
		}
	}
	e.check("regen.identical_output", err2)
	e.reportLatencies("regeneration", walls)
	return nil
}

// checkWorkers runs one small fleet at one and at two workers and
// requires identical fingerprints.
func checkWorkers(seed int64) error {
	var prints [2]uint64
	for i := range prints {
		cfg, err := fleetConfig(seed, determinismPerModel, i+1)
		if err != nil {
			return err
		}
		fl, err := fleetsim.New(cfg)
		if err != nil {
			return err
		}
		if err := fl.RunWild(func(fleetsim.Submission) {}); err != nil {
			return err
		}
		prints[i] = fl.Fingerprint()
	}
	if prints[0] != prints[1] {
		return fmt.Errorf("fingerprint %x at 1 worker, %x at 2", prints[0], prints[1])
	}
	return nil
}
