package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const cliTimeout = 120 * time.Second // one lowcontend process

// Seed streams: every input seed is derive(benchmark seed, stream, ...).
const (
	streamRegen = iota + 1
	streamSweep
	streamHot
	streamCold
	streamSample
)

// derive mixes the benchmark seed with stream labels into one input
// seed (a splitmix64 chain), kept below 2^48 so JSON tools that read
// numbers as doubles show it exactly.
func derive(seed uint64, labels ...uint64) uint64 {
	x := mix(seed)
	for _, l := range labels {
		x = mix(x ^ mix(l))
	}
	return x & (1<<48 - 1)
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cliRun is one finished lowcontend process.
type cliRun struct {
	wall      time.Duration
	user, sys time.Duration
	maxRSSKB  int64
	minflt    int64
	stdout    []byte
	err       error
}

// runCLI runs lowcontend with args, the default environment, and the
// kernel's resource accounting of the child.
func (b *bench) runCLI(ctx context.Context, args ...string) cliRun {
	ctx, cancel := context.WithTimeout(ctx, cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.cli, args...)
	cmd.Env = programEnv()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(t0), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.user = time.Duration(ru.Utime.Nano())
			r.sys = time.Duration(ru.Stime.Nano())
			r.maxRSSKB = ru.Maxrss
			r.minflt = ru.Minflt
		}
	}
	if err != nil {
		r.err = fmt.Errorf("lowcontend %s: %v: %s", strings.Join(args, " "), err, lastLine(errb.String()))
	}
	return r
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// cliWorkload is a workload whose op is one lowcontend process. A run
// rotates its ops through cliSeeds seeds, so that no one seed's amount
// of simulated work sets the run's figures; every op of one seed must
// print the same output.
type cliWorkload struct {
	stream uint64
	args   func(seed string) []string
	// reference renders the output every op of a seed must match, given
	// that seed's warm-up output.
	reference func(ctx context.Context, b *bench, seed string, warm []byte) ([]byte, error)
	// check judges each seed's reference text.
	check func(ref []byte) error
	// docArgs is the op's JSON rendition, which checkDoc judges once per
	// run, for the first seed.
	docArgs  func(seed string) []string
	checkDoc func(doc []byte) error
	// replay runs the op in process, timing calls into each layer, and
	// returns the rendered output beside the per-layer measurements.
	replay func(seed uint64) (*replayStats, error)
}

// cliSeeds is the number of seeds a CLI run rotates through, each with
// one warm-up invocation in the set-up.
const cliSeeds = 5

// run is a CLI workload's set-up, timed phase and checks. In a traced
// run each timed op is followed by its in-process replay.
func (c cliWorkload) run(ctx context.Context, b *bench, minOps int) (*outcome, error) {
	o := &outcome{}
	var seeds [cliSeeds]uint64
	var args [cliSeeds][]string
	var refs [cliSeeds][]byte
	for j := range cliSeeds {
		seeds[j] = derive(b.seed, c.stream, uint64(j))
		args[j] = c.args(strconv.FormatUint(seeds[j], 10))
		r := b.runCLI(ctx, args[j]...)
		if r.err != nil {
			return nil, fmt.Errorf("set-up: %w", r.err)
		}
		o.setups = append(o.setups, r.wall)
		ref, err := c.reference(ctx, b, strconv.FormatUint(seeds[j], 10), r.stdout)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(r.stdout, ref) {
			o.fail(false, "seed %d: warm-up output differs from the reference", seeds[j])
		}
		refs[j] = ref
	}

	var layers layerRun
	var passed [cliSeeds]int // ops of each seed that printed the reference
	start := time.Now()
	for i := 0; time.Since(start) < b.seconds || len(o.lat) < minOps; i++ {
		if ctx.Err() != nil {
			return nil, errInterrupted
		}
		j := i % cliSeeds
		o.attempted++
		r := b.runCLI(ctx, args[j]...)
		switch {
		case r.err != nil:
			o.fail(true, "op %d: %v", i, r.err)
			continue
		case !bytes.Equal(r.stdout, refs[j]):
			o.fail(true, "op %d: output differs from the reference", i)
			continue
		}
		passed[j]++
		o.lat = append(o.lat, r.wall)
		o.cpu += r.user + r.sys
		o.rssKB = append(o.rssKB, r.maxRSSKB)
		if b.trace {
			layers.child(r)
			st, err := c.replay(seeds[j])
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			if st.text != string(refs[j]) {
				o.fail(true, "op %d: in-process replay output differs from the CLI's", i)
			}
			layers.add(st)
		}
	}
	o.elapsed = time.Since(start)

	// Every op of a seed printed that seed's reference byte for byte, so
	// a property the reference lacks is lacking in each of those ops.
	for j := range cliSeeds {
		err := c.check(refs[j])
		if j == 0 && err == nil {
			r := b.runCLI(ctx, c.docArgs(strconv.FormatUint(seeds[j], 10))...)
			if err = r.err; err == nil {
				err = c.checkDoc(r.stdout)
			}
		}
		if err != nil {
			o.fail(false, "seed %d: %v", seeds[j], err)
			o.failed += passed[j]
		}
	}
	if b.trace {
		o.layers = layers.metrics()
	}
	return o, nil
}

var regen = cliWorkload{
	stream: streamRegen,
	args:   func(seed string) []string { return []string{"-seed", seed, "all"} },
	// The runner guarantees parallel invariance: every pass at the
	// default -parallel must print what a -parallel 1 pass prints.
	reference: func(ctx context.Context, b *bench, seed string, _ []byte) ([]byte, error) {
		r := b.runCLI(ctx, "-seed", seed, "-parallel", "1", "all")
		if r.err != nil {
			return nil, fmt.Errorf("-parallel 1 reference: %w", r.err)
		}
		return r.stdout, nil
	},
	check:    checkFig1,
	docArgs:  func(seed string) []string { return []string{"-seed", seed, "-json", "-results-only", "all"} },
	checkDoc: checkRegenDoc,
	replay:   replayRegen,
}

var sweepTable1 = cliWorkload{
	stream: streamSweep,
	args: func(seed string) []string {
		return []string{"sweep", "table1", "-sizes", sweepSizes, "-seed", seed}
	},
	reference: func(_ context.Context, _ *bench, _ string, warm []byte) ([]byte, error) {
		return warm, nil
	},
	check: checkSweepText,
	docArgs: func(seed string) []string {
		return []string{"sweep", "table1", "-sizes", sweepSizes, "-seed", seed, "-json"}
	},
	checkDoc: checkSweepDoc,
	replay:   replaySweep,
}

const sweepSizes = "4096,16384"
