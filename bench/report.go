package bench

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Env records the conditions a result was measured under; numbers are
// only comparable between runs whose Env matches. Each result carries
// its own seed.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// Commit is the git commit checked out at the root, with "+dirty"
	// when tracked files differ from it, or "none" outside a git
	// repository.
	Commit string `json:"commit"`
	// Source is a SHA-256 over the checkout's Go sources, go.mod and
	// go.sum files and BENCHMARK.json: the code measured, in any
	// checkout.
	Source string `json:"source"`
}

// CurrentEnv describes this machine and the checkout at root. build, the
// build directory, is left out of the source digest.
func CurrentEnv(root, build string) (Env, error) {
	env := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Commit:     "none",
	}
	src, err := sourceDigest(root, build)
	if err != nil {
		return env, fmt.Errorf("source digest: %w", err)
	}
	env.Source = src
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// Only the checkout's own repository names its commit; a source tree
	// without .git may sit inside some unrelated one.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err != nil {
			return env, fmt.Errorf("git rev-parse HEAD in %s: %w", root, err)
		}
		env.Commit = strings.TrimSpace(string(b))
		st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
		if err != nil {
			return env, fmt.Errorf("git status in %s: %w", root, err)
		}
		if len(bytes.TrimSpace(st)) > 0 {
			env.Commit += "+dirty"
		}
	}
	return env, nil
}

// sourceDigest hashes, in path order, the path and contents of every .go,
// go.mod and go.sum file under root, and BENCHMARK.json, skipping hidden
// directories and build.
func sourceDigest(root, build string) (string, error) {
	skip, err := filepath.Abs(build)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			if path != root && strings.HasPrefix(name, ".") || abs == skip {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" || rel == "BENCHMARK.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// File is a results file: the environment plus every run of a pass.
type File struct {
	Env     Env      `json:"env"`
	Results []Result `json:"results"`
}

// ReadFile loads a results file.
func ReadFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// WriteFile saves a results file.
func WriteFile(path string, f File) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Summary is the one-line JSON form of a result that ends a run's
// output: correctness, operation counts, and each metric's value and
// unit.
func (r Result) Summary() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// Print writes the result as a table: every metric with its unit,
// direction and sample count, then every check.
func (r Result) Print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d (%s, %g s scale): %d attempted, %d failed\n", r.Workload, r.Seed, kind, r.Seconds, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %-6s better  n=%d\n", m.Name, m.Value, m.Unit, m.Better, m.N)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-32s %s\n", c.Name, status)
	}
}
