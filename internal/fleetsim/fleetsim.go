// Package fleetsim steps entire device fleets in batch: a struct-of-arrays
// engine that holds every per-device quantity (die/case temperatures,
// thermal-engine state, utilization level, accumulated energy, RNG streams)
// in contiguous per-cohort slices and advances N devices per tick in one
// tight loop, instead of building N pointer-rich device.Device object
// graphs. The layout is what makes million-device populations step faster
// than real time: a tick touches a handful of sequential arrays rather
// than a million scattered heaps.
//
// The engine is a *re-implementation of device.Device.Step over arrays*,
// not an approximation of it: the loop body replays Step stage for stage
// in the identical floating-point operation order, using the same exported
// seams (governor.PollState, thermal.TwoNodeParams.Step, the factored
// silicon leakage terms, device's behavioral constants). A 1-device fleet
// produces byte-identical traces to a device.Device driven through the
// accubench runner — fleetsim_test.go enforces that golden on both a
// static-table quad (Nexus 5) and an RBCPR big.LITTLE part (Nexus 6P).
//
// Determinism contract: every device owns private splitmix64 RNG streams
// (sim.Stream) derived from (fleet seed, device name) alone, and devices
// never couple, so the fleet's result depends only on (Seed, Cohorts,
// ambient range, lottery parameters) — never on Workers, Block, or how the
// scheduler interleaves shards. The worker-count determinism test runs the
// same fleet at 1, 4 and 16 workers under -race and requires identical
// digests.
package fleetsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"accubench/internal/accubench"
	"accubench/internal/governor"
	"accubench/internal/obs"
	"accubench/internal/silicon"
	"accubench/internal/sim"
	"accubench/internal/soc"
	"accubench/internal/units"
	"accubench/internal/workload"
)

// The wild quick protocol, in control steps. These mirror the schedule
// crowd.WildDevice.Benchmark configures on the accubench runner: the
// fleet engine replays that schedule directly, so the constants live here
// as the single batched copy.
const (
	// ControlStep is the simulation control step (accubench default).
	ControlStep = 100 * time.Millisecond
	// WarmupQuick is the quick protocol's synthetic-heat phase.
	WarmupQuick = time.Minute
	// WorkloadQuick is the quick protocol's measured phase.
	WorkloadQuick = 2 * time.Minute
	// CooldownFixed is the wild protocol's fixed sleep: long enough for the
	// decay to enter the slow case→ambient regime on every catalog model.
	CooldownFixed = 10 * time.Minute
	// CooldownPoll is the sensor polling cadence while asleep.
	CooldownPoll = 5 * time.Second
)

// WildSteps is how many control steps one device takes through the whole
// wild quick protocol (warmup + cooldown + workload) — the step count
// behind the devices·steps/sec throughput numbers.
const WildSteps = int(WarmupQuick/ControlStep) +
	int(CooldownFixed/CooldownPoll)*int(CooldownPoll/ControlStep) +
	int(WorkloadQuick/ControlStep)

// Default population parameters, matching cmd/crowdload's flags.
const (
	// DefaultSigma is the lottery's log-normal leakage spread.
	DefaultSigma = 0.55
	// DefaultBinNoise is the lottery's bin-assignment noise.
	DefaultBinNoise = 0.35
	// DefaultBlock is the shard granularity RunWild hands to workers.
	DefaultBlock = 4096
)

// CohortSpec asks for a population of one handset model.
type CohortSpec struct {
	// Model is the handset product.
	Model *soc.DeviceModel
	// Devices is the cohort's population size.
	Devices int
}

// Config describes a fleet.
type Config struct {
	// Seed drives the silicon lottery, the ambient draws and every
	// per-device noise stream. Same seed, same fleet — bit for bit.
	Seed int64
	// Cohorts is the model mix.
	Cohorts []CohortSpec
	// AmbientLo and AmbientHi bound the uniform wild-ambient draw. Both
	// zero selects a fixed 26 °C ambient.
	AmbientLo, AmbientHi units.Celsius
	// Sigma is the lottery leakage spread; ≤ 0 selects DefaultSigma.
	Sigma float64
	// BinNoise is the lottery bin noise; < 0 selects DefaultBinNoise.
	BinNoise float64
	// Workers bounds RunWild's parallelism; ≤ 0 selects GOMAXPROCS.
	// The worker count never changes results, only wall-clock time.
	Workers int
	// Block is the shard granularity; ≤ 0 selects DefaultBlock.
	Block int
	// Record attaches a trace recorder to every device (the goldens use
	// this; far too heavy for large fleets).
	Record bool
	// Metrics, when non-nil, registers the fleet gauges (fleet_devices,
	// fleet_cohorts) and counters (fleet_steps_total,
	// fleet_submissions_total, plus the fleet_device_steps_per_sec gauge
	// RunWild updates).
	Metrics *obs.Registry
}

// Submission is one wild device's upload: what cmd/crowdload sends to the
// crowdd backend, plus the ground truth (corner, ambient, energy) the
// backend never sees — population studies read it straight off the fleet.
type Submission struct {
	// Device is the unit name, e.g. "fleet-0000042".
	Device string
	// Model is the handset product name.
	Model string
	// Score is the completed workload iterations of the measured phase.
	Score float64
	// Cooldown is the sensor trace of the cooldown phase.
	Cooldown []accubench.CooldownSample
	// Corner is the device's silicon-lottery outcome (ground truth).
	Corner silicon.ProcessCorner
	// Ambient is the device's wild ambient (ground truth).
	Ambient units.Celsius
	// Energy is the total energy drawn across the whole protocol.
	Energy units.Joules
}

// Fleet is a batched population of simulated handsets.
type Fleet struct {
	cohorts []*Cohort
	devices int
	workers int
	block   int

	subs  *obs.Counter
	gRate *obs.Gauge
}

// New builds a fleet: draws each cohort's silicon lottery and wild
// ambients, then lays the population out in struct-of-arrays form.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Cohorts) == 0 {
		return nil, fmt.Errorf("fleetsim: no cohorts")
	}
	sigma := cfg.Sigma
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	binNoise := cfg.BinNoise
	if binNoise < 0 {
		binNoise = DefaultBinNoise
	}
	lo, hi := cfg.AmbientLo, cfg.AmbientHi
	if lo == 0 && hi == 0 {
		lo, hi = 26, 26
	}
	if hi < lo {
		return nil, fmt.Errorf("fleetsim: ambient range %v..%v inverted", lo, hi)
	}
	f := &Fleet{
		workers: cfg.Workers,
		block:   cfg.Block,
	}
	if f.workers <= 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	if f.block <= 0 {
		f.block = DefaultBlock
	}
	base := 0
	for _, spec := range cfg.Cohorts {
		c, err := newCohort(spec, cfg.Seed, base, lo, hi, sigma, binNoise, cfg.Record)
		if err != nil {
			return nil, err
		}
		f.cohorts = append(f.cohorts, c)
		base += spec.Devices
	}
	f.devices = base
	if m := cfg.Metrics; m != nil {
		m.Gauge("fleet_devices", "simulated devices in the fleet").Set(int64(f.devices))
		m.Gauge("fleet_cohorts", "model cohorts in the fleet").Set(int64(len(f.cohorts)))
		steps := m.Counter("fleet_steps_total", "device-steps simulated")
		for _, c := range f.cohorts {
			c.steps = steps
		}
		f.subs = m.Counter("fleet_submissions_total", "wild submissions produced")
		f.gRate = m.Gauge("fleet_device_steps_per_sec", "device-steps per wall second of the last RunWild")
	}
	return f, nil
}

// newCohort draws one model's population and builds its SoA state.
func newCohort(spec CohortSpec, seed int64, base int, lo, hi units.Celsius, sigma, binNoise float64, record bool) (*Cohort, error) {
	model := spec.Model
	if model == nil {
		return nil, fmt.Errorf("fleetsim: cohort %d has no model", base)
	}
	if spec.Devices <= 0 {
		return nil, fmt.Errorf("fleetsim: %s cohort has %d devices", model.Name, spec.Devices)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("fleetsim: %s: %w", model.Name, err)
	}
	n := spec.Devices

	// Population draws come corners first, then one ambient per device,
	// from a per-cohort source named after the model so adding a cohort
	// never shifts another's draws.
	src := sim.NewSource(seed, "fleet:"+model.Name)
	lottery := silicon.Lottery{Sigma: sigma, Bins: model.SoC.Bins, BinNoise: binNoise}
	corners, err := lottery.Draw(src, n)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: %s: %w", model.Name, err)
	}

	s := model.SoC
	c := &Cohort{
		model:       model,
		n:           n,
		base:        base,
		big:         s.Big,
		little:      s.Little,
		policy:      model.Thermal,
		leak:        s.Leakage,
		uncore:      s.Uncore,
		profile:     workload.PiCPUBound(),
		sensorSigma: model.SensorNoise,
		vCap:        governor.VoltageCap(model.VoltageThrottle, model.Battery.Nominal, s.Big),
		body:        model.Body.Params(),
		share:       1.0 / float64(s.TotalCores()),
		hasLittle:   s.Little != nil,
		cpiBig:      s.Big.CyclesPerIteration,
		ceffBig:     s.Big.Ceff,
		corners:     corners,
	}
	if c.hasLittle {
		c.cpiLittle = s.Little.CyclesPerIteration
		c.ceffLittle = s.Little.Ceff
	}
	if ti, ok := s.Voltages.(tempInvariant); ok && ti.TempInvariant() {
		c.voltTempInv = true
	}
	// The stable substep comes from the sealed thermal network, exactly as
	// a device.Device's Network.Step would subdivide.
	nw, _, _, err := model.Body.Build(0)
	if err != nil {
		return nil, fmt.Errorf("fleetsim: %s: %w", model.Name, err)
	}
	nw.Seal()
	c.sub = nw.MaxStableStep()

	c.names = make([]string, n)
	c.cornerShare = make([]float64, n)
	c.ambient = make([]units.Celsius, n)
	c.dieT = make([]units.Celsius, n)
	c.caseT = make([]units.Celsius, n)
	c.engines = make([]governor.EngineState, n)
	c.sensor = make([]sim.Stream, n)
	c.util = make([]sim.Stream, n)
	c.utilLevel = make([]float64, n)
	c.utilLevelEnd = make([]time.Duration, n)
	c.energy = make([]units.Joules, n)
	c.memoCap = make([]units.MegaHertz, n)
	c.memoBigF = make([]units.MegaHertz, n)
	c.memoLittleF = make([]units.MegaHertz, n)
	c.bigVValid = make([]bool, n)
	c.bigVFreq = make([]units.MegaHertz, n)
	c.bigVTemp = make([]units.Celsius, n)
	c.bigV = make([]units.Volts, n)
	c.bigVterm = make([]float64, n)
	if c.hasLittle {
		c.littleVValid = make([]bool, n)
		c.littleVFreq = make([]units.MegaHertz, n)
		c.littleVTemp = make([]units.Celsius, n)
		c.littleV = make([]units.Volts, n)
		c.littleVterm = make([]float64, n)
		c.littleProg = make([]float64, n*s.Little.Cores)
	}
	c.bigProg = make([]float64, n*s.Big.Cores)

	for i := 0; i < n; i++ {
		name := fmt.Sprintf("fleet-%07d", base+i)
		c.names[i] = name
		c.cornerShare[i] = corners[i].Leakage * c.share
		amb := units.Celsius(src.Uniform(float64(lo), float64(hi)))
		c.ambient[i] = amb
		c.dieT[i], c.caseT[i] = amb, amb // thermal equilibrium at start
		c.engines[i] = governor.NewEngineState(s.Big)
		c.sensor[i] = sim.NewStream(seed, "sensor:"+name)
		c.util[i] = sim.NewStream(seed, "util:"+name)
		c.memoCap[i] = -1 // no valid memo entry yet
	}
	if record {
		c.attachRecorders()
	}
	return c, nil
}

// Cohorts returns the fleet's cohorts in spec order.
func (f *Fleet) Cohorts() []*Cohort { return f.cohorts }

// Devices returns the fleet's total population.
func (f *Fleet) Devices() int { return f.devices }

// RunWild runs the wild quick protocol on every device and calls emit once
// per device with its Submission. Shards of Block devices are distributed
// over Workers goroutines; emit must therefore be safe for concurrent use.
// Results are bit-identical for any worker count — only wall-clock time
// changes. The order of emit calls is scheduling-dependent; consumers that
// need an order should sort on Submission.Device.
func (f *Fleet) RunWild(emit func(Submission)) error {
	type shard struct {
		c      *Cohort
		lo, hi int
	}
	var shards []shard
	for _, c := range f.cohorts {
		for lo := 0; lo < c.n; lo += f.block {
			hi := lo + f.block
			if hi > c.n {
				hi = c.n
			}
			shards = append(shards, shard{c, lo, hi})
		}
	}
	wrapped := emit
	if f.subs != nil {
		wrapped = func(s Submission) {
			f.subs.Inc()
			emit(s)
		}
	}

	start := time.Now()
	work := make(chan shard)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range work {
				if err := sh.c.runWild(sh.lo, sh.hi, wrapped); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, sh := range shards {
		work <- sh
	}
	close(work)
	wg.Wait()
	if f.gRate != nil {
		if secs := time.Since(start).Seconds(); secs > 0 {
			f.gRate.Set(int64(float64(f.devices) * float64(WildSteps) / secs))
		}
	}
	return firstErr
}

// Fingerprint digests the fleet's mutable per-device state (temperatures,
// energy, engine caps, utilization, RNG positions) with FNV-1a. Two fleets
// that took the same steps have the same fingerprint; the worker-count
// determinism test and crowdload's -dry-run report are built on it.
func (f *Fleet) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, c := range f.cohorts {
		for i := 0; i < c.n; i++ {
			mix(f64bits(float64(c.dieT[i])))
			mix(f64bits(float64(c.caseT[i])))
			mix(f64bits(float64(c.energy[i])))
			mix(f64bits(float64(c.engines[i].CapFreq)))
			mix(uint64(c.engines[i].OfflineBig))
			mix(f64bits(c.utilLevel[i]))
			mix(uint64(c.Score(i)))
		}
	}
	return h
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }
