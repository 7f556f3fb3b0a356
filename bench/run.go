// Package bench is the repository's benchmark: one open-loop driver for
// the crowd service (real crowdd processes over loopback) and the
// paper-reproduction simulator, plus a traced run that times each
// layer's public calls in-process on the same inputs. bench/README.md
// explains the workloads and every metric; cmd benchrun is the
// command-line front end.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Config selects one benchmark run.
type Config struct {
	// Workload is one of Workloads.
	Workload string
	// Seed generates every input of the run.
	Seed int64
	// Seconds scales the measured phases; every size and duration of a
	// workload is proportional to it.
	Seconds float64
	// Trace selects the traced per-layer run instead of the end-to-end
	// one.
	Trace bool
	// Spec is BENCHMARK.json: a run reports exactly the metrics of its
	// end_to_end list, or of per_layer when traced, with their units and
	// directions.
	Spec Spec
	// Bin holds the crowdd and experiments executables.
	Bin string
	// Work is the scratch directory for data directories.
	Work string
	// Out is where a traced run writes its span file,
	// <Out>/<workload>.trace.json.
	Out string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Metric is one measured value.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// N is how many samples the value summarizes.
	N int `json:"n"`
}

// Check is one correctness check and its outcome.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is what one run measured and checked.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []Check  `json:"checks"`
	Metrics   []Metric `json:"metrics"`
}

// workload is one traffic mix. rate is its latency phase's offered load
// in operations per second; the traced run paces its transport sections
// at the same rate.
type workload struct {
	run  func(*runEnv) error
	rate float64
}

// Workloads lists the workload names in run order.
var Workloads = []string{"stream-ingest", "json-ingest", "read-mix", "cluster-ingest", "paper-sim"}

var workloads = map[string]workload{
	"stream-ingest":  {runStream, streamShape.rate},
	"json-ingest":    {runJSON, jsonShape.rate},
	"read-mix":       {runReadMix, readMixWriteRate},
	"cluster-ingest": {runCluster, clusterShape.rate},
	"paper-sim":      {runPaperSim, streamShape.rate},
}

// runEnv is the state of one run: its configuration, the processes it
// started, and what it has measured and checked so far. Only the run's
// own goroutine uses it.
type runEnv struct {
	ctx         context.Context
	cfg         Config
	crowdd      string
	experiments string
	inputs      *Inputs
	daemons     []*daemon
	dirs        []string

	checks    []Check
	attempted int
	failed    int
	values    map[string]Metric
}

// Run performs one benchmark run. An error means the run could not be
// carried out; a failed correctness check is reported in the result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	if cfg.Seconds <= 0 {
		return Result{}, fmt.Errorf("seconds must be positive, got %v", cfg.Seconds)
	}
	defs := cfg.Spec.EndToEnd
	if cfg.Trace {
		defs = cfg.Spec.PerLayer
	}
	if len(defs) == 0 {
		return Result{}, fmt.Errorf("the spec lists no metrics for this run")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	e := &runEnv{
		ctx:         ctx,
		cfg:         cfg,
		crowdd:      filepath.Join(cfg.Bin, "crowdd"),
		experiments: filepath.Join(cfg.Bin, "experiments"),
		values:      make(map[string]Metric),
	}
	defer e.cleanup()
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	in, err := NewInputs(cfg.Seed)
	if err != nil {
		return Result{}, fmt.Errorf("generate inputs: %w", err)
	}
	e.inputs = in
	e.logf("inputs: %d pooled devices over %d models in %v", len(in.pool), len(Models), time.Since(t0).Round(time.Millisecond))

	if cfg.Trace {
		err = runTrace(e, w.rate)
	} else {
		err = w.run(e)
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Workload:  cfg.Workload,
		Seed:      cfg.Seed,
		Seconds:   cfg.Seconds,
		Trace:     cfg.Trace,
		Attempted: e.attempted,
		Failed:    e.failed,
		Checks:    e.checks,
		Correct:   e.failed == 0,
	}
	for _, c := range e.checks {
		res.Correct = res.Correct && c.OK
	}
	for _, d := range defs {
		m, ok := e.values[d.Name]
		if !ok {
			return Result{}, fmt.Errorf("%s did not measure %s", cfg.Workload, d.Name)
		}
		res.Metrics = append(res.Metrics, m)
	}
	if len(e.values) != len(defs) {
		return Result{}, fmt.Errorf("%s measured %d metrics, want the %d listed", cfg.Workload, len(e.values), len(defs))
	}
	return res, nil
}

func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(e.cfg.Log, e.cfg.Workload+": "+format+"\n", args...)
}

// seconds scales a per-second quantity by the run's length.
func (e *runEnv) seconds(perSecond float64) int {
	n := int(perSecond * e.cfg.Seconds)
	if n < 1 {
		n = 1
	}
	return n
}

// report records a metric, with the unit and direction BENCHMARK.json
// gives it. A metric BENCHMARK.json does not list is skipped; Run then
// fails on the listed one that is missing.
func (e *runEnv) report(name string, value float64, n int) {
	if d, ok := e.cfg.Spec.metric(name); ok {
		e.values[name] = Metric{Name: name, Unit: d.Unit, Better: d.Better, Value: value, N: n}
	}
}

// check records a correctness check; a nil err passes it.
func (e *runEnv) check(name string, err error) {
	c := Check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
		e.logf("check %s FAILED: %v", name, err)
	}
	e.checks = append(e.checks, c)
}

// count adds a phase's operations to the run's attempted and failed
// totals.
func (e *runEnv) count(attempted, failed int) {
	e.attempted += attempted
	e.failed += failed
}

// tempDir makes a fresh directory under the run's scratch directory;
// cleanup removes it.
func (e *runEnv) tempDir(name string) (string, error) {
	dir := filepath.Join(e.cfg.Work, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), len(e.dirs)))
	e.dirs = append(e.dirs, dir)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// cleanup kills every daemon still running and removes the run's data
// directories.
func (e *runEnv) cleanup() {
	for _, d := range e.daemons {
		d.kill()
	}
	for _, dir := range e.dirs {
		os.RemoveAll(dir)
	}
	e.daemons, e.dirs = nil, nil
}
