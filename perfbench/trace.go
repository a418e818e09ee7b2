package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/sweep"
)

// The traced run replays an op in process through the program's public
// layers — the registry, core.SessionPool, spec.Runner, sweep.Runner and
// the renderers — and times the calls from here. Nothing inside the
// program is instrumented.
//
// spec.CellTiming.Wall includes SessionPool.Release, because the
// runner's observer defer runs after its release defer. Release time is
// therefore Wall minus the cell's wrapped Run, and simulation time is
// the wrapped Run minus Acquire.

// replayStats is one replayed op's per-layer measurements.
type replayStats struct {
	text      string // the rendered output, as the CLI would print it
	cells     int
	cellWalls []time.Duration
	longest   time.Duration // slowest cell of the op
	acquire   time.Duration
	simulate  time.Duration
	release   time.Duration
	render    time.Duration

	pramOps, steps, bulk, expanded, serial, gang int64
	acquires, news                               int64

	points, violating int
	pointWalls        []time.Duration
	sweepRender       time.Duration
}

// runObserved runs e through r with every cell's Run wrapped in a timer
// and the runner's CellObserver collecting CellTiming, and folds the
// cells' spans and counters into st.
func (st *replayStats) runObserved(r spec.Runner, e spec.Experiment, sizes []int, seed uint64) spec.Result {
	var runs, walls, acqs []time.Duration
	cellsOf := e.Cells
	e.Cells = func(sizes []int) []spec.Cell {
		cells := cellsOf(sizes)
		runs = make([]time.Duration, len(cells))
		walls = make([]time.Duration, len(cells))
		acqs = make([]time.Duration, len(cells))
		for i := range cells {
			run := cells[i].Run
			cells[i].Run = func(c *spec.Ctx) error {
				t0 := time.Now()
				defer func() { runs[i] = time.Since(t0) }()
				return run(c)
			}
		}
		return cells
	}
	// Each index is written by the one goroutine running that cell, and
	// Run returns only after every cell finished.
	r.CellObserver = func(res spec.CellResult, t spec.CellTiming) {
		walls[res.Index], acqs[res.Index] = t.Wall, t.Acquire
	}
	res := r.Run(e, sizes, seed)
	for i := range runs {
		st.cellWalls = append(st.cellWalls, walls[i])
		st.longest = max(st.longest, walls[i])
		st.acquire += acqs[i]
		st.simulate += runs[i] - acqs[i]
		st.release += walls[i] - runs[i]
	}
	st.cells += len(res.Cells)
	for _, c := range res.Cells {
		st.bulk += c.BulkDescriptors
		st.expanded += c.BulkExpanded
		st.serial += c.Exec.SerialSteps
		st.gang += c.Exec.GangDispatches
		if c.Err != nil {
			continue
		}
		for _, m := range c.Measurements {
			st.pramOps += m.Stats.Ops
			st.steps += m.Stats.Steps
		}
	}
	return res
}

// cliPool is the session pool the CLI builds for one invocation: at
// cell (or grid-point) parallelism above 1 each machine gets one
// step-level worker.
func cliPool() *core.SessionPool {
	pool := core.NewSessionPool()
	if runtime.GOMAXPROCS(0) > 1 {
		pool.Workers = 1
	}
	return pool
}

// replayRegen replays `lowcontend -seed S all`: every registry
// experiment at its default sizes, cells at GOMAXPROCS parallelism, on
// one fresh pool.
func replayRegen(seed uint64) (*replayStats, error) {
	pool := cliPool()
	defer pool.Close()
	r := spec.Runner{Parallel: runtime.GOMAXPROCS(0), Pool: pool}
	st := &replayStats{}
	var text strings.Builder
	for _, e := range exp.Registry() {
		res := st.runObserved(r, e, e.DefaultSizes, seed)
		if err := res.FirstErr(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out := e.Render(res)
		st.render += time.Since(t0)
		text.WriteString(out + "\n")
	}
	ps := pool.Stats()
	st.acquires, st.news = ps.Acquires, ps.News
	st.text = text.String()
	return st, nil
}

// replaySweep replays `lowcontend sweep table1 -sizes 4096,16384 -seed
// S` through sweep.Runner, timing grid points and the renderer. The
// runner's grid points build their own spec.Runner, which a caller
// cannot observe, so each point is then replayed once more through a
// spec.Runner configured as the sweep configures it, for the
// acquire/simulate/release split and the engine counters.
func replaySweep(seed uint64) (*replayStats, error) {
	e, ok := exp.Find("table1")
	if !ok {
		return nil, fmt.Errorf("registry has no table1")
	}
	plan, err := sweep.Normalize(e, sweep.Plan{Experiment: e.Name, Sizes: []int{4096, 16384}, Seeds: []uint64{seed}})
	if err != nil {
		return nil, err
	}
	st := &replayStats{}
	pool := cliPool()
	defer pool.Close()
	var mu sync.Mutex
	r := sweep.Runner{Pool: pool, PointObserver: func(_ sweep.Point, wall time.Duration) {
		mu.Lock()
		st.pointWalls = append(st.pointWalls, wall)
		mu.Unlock()
	}}
	res := r.Run(e, plan)
	t0 := time.Now()
	st.text = sweep.RenderText(res) + "\n"
	st.sweepRender = time.Since(t0)
	ps := pool.Stats()
	st.acquires, st.news = ps.Acquires, ps.News
	st.points = len(res.Points)
	for _, p := range res.Points {
		st.violating += p.Violations
	}

	split := cliPool()
	defer split.Close()
	for _, p := range res.Points {
		m, ok := machine.ParseModel(p.Model)
		if !ok {
			return nil, fmt.Errorf("sweep point has unknown model %q", p.Model)
		}
		st.runObserved(spec.Runner{Parallel: 1, Pool: split, Model: &m, Profile: true, ProfileCells: -1},
			e, []int{p.Size}, p.Seed)
	}
	return st, nil
}

// layerRun accumulates the per-layer measurements of a traced run.
type layerRun struct {
	ops                                   int
	user, sys, minflt                     []float64 // per lowcontend child
	cellMS, longest                       []float64
	acquire, simulate, release, render    []float64 // per replayed op
	cells, pramOps, steps, bulk, expanded float64
	serial, gang, acquires, news          float64
	points, violating                     float64
	pointMS, longestPoint, sweepRender    []float64
}

func (l *layerRun) child(r cliRun) {
	l.user = append(l.user, ms(r.user))
	l.sys = append(l.sys, ms(r.sys))
	l.minflt = append(l.minflt, float64(r.minflt))
}

func (l *layerRun) add(st *replayStats) {
	l.ops++
	l.cellMS = append(l.cellMS, msOf(st.cellWalls)...)
	l.longest = append(l.longest, ms(st.longest))
	l.acquire = append(l.acquire, ms(st.acquire))
	l.simulate = append(l.simulate, ms(st.simulate))
	l.release = append(l.release, ms(st.release))
	l.render = append(l.render, ms(st.render))
	l.cells += float64(st.cells)
	l.pramOps += float64(st.pramOps)
	l.steps += float64(st.steps)
	l.bulk += float64(st.bulk)
	l.expanded += float64(st.expanded)
	l.serial += float64(st.serial)
	l.gang += float64(st.gang)
	l.acquires += float64(st.acquires)
	l.news += float64(st.news)
	if st.points > 0 {
		l.points += float64(st.points)
		l.violating += float64(st.violating)
		pts := msOf(st.pointWalls)
		l.pointMS = append(l.pointMS, pts...)
		longest := 0.0
		for _, p := range pts {
			longest = max(longest, p)
		}
		l.longestPoint = append(l.longestPoint, longest)
		l.sweepRender = append(l.sweepRender, ms(st.sweepRender))
	}
}

// metrics reports medians of per-op and per-cell times and per-op means
// of counts (which are the same on every op of a run).
func (l *layerRun) metrics() map[string]metric {
	m := newLayers()
	set(m, "cli.user_ms", median(l.user))
	set(m, "cli.sys_ms", median(l.sys))
	set(m, "cli.minor_faults", median(l.minflt))
	if l.ops == 0 {
		return m
	}
	n := float64(l.ops)
	set(m, "spec.cells", l.cells/n)
	set(m, "spec.cell_ms", median(l.cellMS))
	set(m, "spec.longest_cell_ms", median(l.longest))
	set(m, "spec.acquire_ms", median(l.acquire))
	set(m, "spec.simulate_ms", median(l.simulate))
	set(m, "spec.release_ms", median(l.release))
	set(m, "spec.render_ms", median(l.render))
	set(m, "core.acquires", l.acquires/n)
	set(m, "core.news", l.news/n)
	set(m, "machine.pram_ops", l.pramOps/n)
	set(m, "machine.steps", l.steps/n)
	if l.pramOps > 0 {
		set(m, "machine.ns_per_pram_op", median(l.simulate)*1e6/(l.pramOps/n))
	}
	set(m, "machine.bulk_descriptors", l.bulk/n)
	if l.bulk > 0 {
		set(m, "machine.bulk_analytic_ratio", 1-l.expanded/l.bulk)
	}
	set(m, "machine.serial_steps", l.serial/n)
	set(m, "machine.gang_dispatches", l.gang/n)
	set(m, "sweep.points", l.points/n)
	set(m, "sweep.violating_cells", l.violating/n)
	set(m, "sweep.point_ms", median(l.pointMS))
	set(m, "sweep.longest_point_ms", median(l.longestPoint))
	set(m, "sweep.render_ms", median(l.sweepRender))
	return m
}
