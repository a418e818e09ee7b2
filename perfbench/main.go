// Command perfbench is the repository's benchmark. It builds
// cmd/lowcontend and cmd/lowcontendd from the checkout it runs in,
// drives them with default flags and environment from this one client
// process, checks their outputs, and prints one JSON result line:
//
//	perfbench --workload regen|serve_mix|sweep --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// timed phase; with --trace 1 it holds the per-layer metrics, measured
// by timing calls into each layer's public functions and reading the
// program's public surfaces. See README.md for the workloads, metrics
// and reference figures. The command must run from the checkout root;
// run.sh builds and starts it there.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation's fixed context: where the program's binaries
// are, the seed every input derives from, and the timed phase's length.
type bench struct {
	root       string // checkout root, holding the program's sources
	cli        string // built cmd/lowcontend
	daemon     string // built cmd/lowcontendd
	seed       uint64
	seconds    time.Duration
	trace      bool
	crosscheck int // serve_mix cold ops re-run through the CLI (-1 = all)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: regen, serve_mix or sweep")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	crosscheck := fs.Int("crosscheck", 8, "serve_mix: cold ops re-run through the CLI after timing (-1 = every cold op)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload regen|serve_mix|sweep, --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, crosscheck: *crosscheck}
	out, err := b.measure(ctx, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// measure builds the program, runs workload w, and reports its failed
// checks, and a traced run's own end-to-end figures, on stderr.
func (b *bench) measure(ctx context.Context, w workload, stderr io.Writer) (result, error) {
	dir, err := b.prepare(ctx)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	minOps := opsForTail(w.tail)
	if b.trace {
		minOps = 0 // a traced run reports no tail
	}
	o, err := w.run(ctx, b, minOps)
	if err != nil {
		return result{}, err
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, p)
	}
	if b.trace {
		// The traced run's own end-to-end figures; their distance from an
		// untraced run's is the tracing overhead. Peak RSS is left out: a
		// child started by vfork inherits the harness's high-water mark
		// into its ru_maxrss, and the in-process replays raise it.
		m, _ := o.endToEnd(w.tail)
		fmt.Fprintf(stderr, "perfbench: %s: traced run end to end:", w.name)
		for _, name := range []string{"setup_s", "ops_per_s", "p50_ms", "tail_ms", "cpu_ms_per_op"} {
			if v, ok := m[name]; ok {
				fmt.Fprintf(stderr, " %s=%.4g", name, v.Value)
			}
		}
		fmt.Fprintln(stderr)
	}
	return o.report(w, b.trace)
}

// prepare checks that the working directory is a checkout of the
// program and builds both binaries into a fresh temporary directory,
// whose path it returns for removal. Build time is in no metric.
func (b *bench) prepare(ctx context.Context) (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, p := range []string{"go.mod", "cmd/lowcontend", "cmd/lowcontendd"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return "", fmt.Errorf("not a checkout of the program (run from its root): %w", err)
		}
	}
	parent := os.Getenv("PERFBENCH_BUILD")
	if parent == "" {
		parent = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, "bin-")
	if err != nil {
		return "", err
	}
	if err := buildBinaries(ctx, root, dir); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	b.root = root
	b.cli = filepath.Join(dir, "lowcontend")
	b.daemon = filepath.Join(dir, "lowcontendd")
	return dir, nil
}

func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/lowcontend", "./cmd/lowcontendd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// programEnv is the environment the program under test runs with: the
// caller's, minus every variable that changes the Go runtime's or the
// daemon's defaults, so numbers come from the path users run.
func programEnv() []string {
	drop := map[string]bool{"GOMAXPROCS": true, "GOGC": true, "GOMEMLIMIT": true,
		"GODEBUG": true, "GOTRACEBACK": true, "LOWCONTEND_ADDR": true, "PORT": true}
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if !drop[k] {
			env = append(env, kv)
		}
	}
	return env
}

var errInterrupted = errors.New("interrupted")

// workload is one benchmark workload: the percentile behind its tail_ms
// and its run, which times at least minOps ops.
type workload struct {
	name string
	tail float64
	run  func(ctx context.Context, b *bench, minOps int) (*outcome, error)
}

var workloads = map[string]workload{
	"regen":     {"regen", 0.75, regen.run},
	"serve_mix": {"serve_mix", 0.99, serveMix},
	"sweep":     {"sweep", 0.75, sweepTable1.run},
}
