// Command benchrun runs the repository's benchmark (bench/README.md).
// From the repository root:
//
//	bash bench/run.sh --workload stream-ingest --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 -runs 5 -out pass.json    # every workload
//	bash bench/run.sh -compare base.json pass.json
//
// bench/run.sh builds this command with its Go cache under the build
// directory and passes -root and -build; benchrun then builds crowdd and
// experiments from the checkout and runs the selected workloads. Each
// run prints its metrics as a table and ends with one JSON line:
// correctness, attempted and failed operations, and each metric's value
// and unit. The exit status is non-zero when a correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"accubench/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		workload = flags.String("workload", "all", "workload to run, or all")
		seed     = flags.Int64("seed", 1, "seed generating every input; -runs R uses seed, seed+1, …")
		seconds  = flags.Float64("seconds", 10, "run length every workload size scales with")
		trace    = flags.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
		runs     = flags.Int("runs", 1, "runs per workload")
		out      = flags.String("out", "", "append every result to this JSON results file, created with the environment if missing")
		compare  = flags.Bool("compare", false, "compare two result files (A = baseline, B = candidate) against BENCHMARK.json's bounds")
		root     = flags.String("root", ".", "repository checkout to build and run")
		build    = flags.String("build", "", "build and scratch directory (default <root>/.bench_build)")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	spec, err := bench.LoadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *compare {
		if flags.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(stdout, spec, flags.Arg(0), flags.Arg(1))
	}
	if flags.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flags.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = bench.Workloads
	}
	if *build == "" {
		*build = filepath.Join(*root, ".bench_build")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env, err := bench.CurrentEnv(*root, *build)
	if err != nil {
		return err
	}
	file := bench.File{Env: env}
	envLine, _ := json.Marshal(file.Env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	// One results file holds one environment: refuse to add to a file
	// measured on other code or another machine before spending a run.
	var prev *bench.File
	if *out != "" {
		f, err := bench.ReadFile(*out)
		switch {
		case err == nil:
			if f.Env != env {
				return fmt.Errorf("%s was measured under env %+v, this run is %+v: write to another file", *out, f.Env, env)
			}
			prev = &f
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}
	bin := filepath.Join(*build, "bin")
	if err := buildBinaries(ctx, *root, bin, stderr); err != nil {
		return err
	}

	correct := true
	for _, name := range names {
		for r := 0; r < *runs; r++ {
			res, err := bench.Run(ctx, bench.Config{
				Workload: name,
				Seed:     *seed + int64(r),
				Seconds:  *seconds,
				Trace:    *trace == 1,
				Spec:     spec,
				Bin:      bin,
				Work:     filepath.Join(*build, "work"),
				Out:      filepath.Join(*build, "trace"),
				Log:      stderr,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.Print(stdout)
			line, err := res.Summary()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
			correct = correct && res.Correct
			file.Results = append(file.Results, res)
		}
	}
	if *out != "" {
		// Append to an existing pass, so one pass can gather separately
		// started runs.
		if prev != nil {
			file.Results = append(prev.Results, file.Results...)
		}
		if err := bench.WriteFile(*out, file); err != nil {
			return err
		}
	}
	if !correct {
		return errors.New("a correctness check failed")
	}
	return nil
}

// buildBinaries builds the programs under test from the checkout.
func buildBinaries(ctx context.Context, root, bin string, stderr io.Writer) error {
	for _, pkg := range []string{"crowdd", "experiments"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bin, pkg), "./cmd/"+pkg)
		cmd.Dir = root
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build %s: %w", pkg, err)
		}
	}
	return nil
}

func compareFiles(stdout io.Writer, spec bench.Spec, pathA, pathB string) error {
	a, err := bench.ReadFile(pathA)
	if err != nil {
		return err
	}
	b, err := bench.ReadFile(pathB)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		side, path string
		env        bench.Env
	}{{"A", pathA, a.Env}, {"B", pathB, b.Env}} {
		fmt.Fprintf(stdout, "%s %s: %s, %d CPUs, %s, commit %s, source %.12s\n", f.side, f.path, f.env.CPU, f.env.NProc, f.env.Go, f.env.Commit, f.env.Source)
	}
	rows, worse, unresolved := bench.Compare(spec, a, b)
	bench.PrintRows(stdout, rows)
	if worse > 0 || unresolved > 0 {
		return fmt.Errorf("%d regressions, %d unresolved metrics", worse, unresolved)
	}
	return nil
}
