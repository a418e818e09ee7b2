package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be a tail at all.
const minBeyond = 10

// outcome is what one run of a workload measured and checked.
type outcome struct {
	setups    []time.Duration // each set-up: program start until ready for the first timed op
	lat       []time.Duration // latency of each timed op that succeeded
	elapsed   time.Duration   // wall time of the timed phase
	cpu       time.Duration   // user+system CPU of the program's processes over the timed phase
	rssKB     []int64         // peak resident set of each program process
	attempted int
	failed    int
	problems  []string          // failed checks and ops, for standard error
	layers    map[string]metric // per-layer metrics of a traced run
}

// fail records a failed op (when op is true) and its reason; only the
// first few reasons are kept.
func (o *outcome) fail(op bool, format string, args ...any) {
	if op {
		o.failed++
	}
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// report turns the outcome into the printed result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func (o *outcome) report(w workload, traced bool) (result, error) {
	out := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed}
	if o.attempted < 1 {
		return out, fmt.Errorf("no op was attempted")
	}
	if traced {
		out.Metrics = o.layers
		for _, l := range perLayer {
			if _, ok := o.layers[l.name]; !ok {
				return out, fmt.Errorf("per-layer metric %s was not measured", l.name)
			}
		}
		return out, nil
	}
	m, err := o.endToEnd(w.tail)
	if err != nil && o.failed == 0 {
		return out, err
	}
	// With failed ops the result is printed whole or not, so that the
	// failure counts reach the caller.
	out.Metrics = m
	return out, nil
}

// endToEnd computes the six user-visible metrics. tail is the workload's
// fixed percentile behind tail_ms; when too few ops lie beyond it, the
// other five are still returned, beside the error.
func (o *outcome) endToEnd(tail float64) (map[string]metric, error) {
	n := len(o.lat)
	if n == 0 || o.elapsed <= 0 || len(o.setups) == 0 || len(o.rssKB) == 0 {
		return nil, fmt.Errorf("no successful timed op to report")
	}
	lat := msOf(o.lat)
	rss := make([]float64, len(o.rssKB))
	for i, kb := range o.rssKB {
		rss[i] = float64(kb) / 1024
	}
	m := map[string]metric{
		"setup_s":       {median(msOf(o.setups)) / 1000, "s"},
		"ops_per_s":     {float64(n) / o.elapsed.Seconds(), "1/s"},
		"p50_ms":        {median(lat), "ms"},
		"cpu_ms_per_op": {ms(o.cpu) / float64(n), "ms"},
		"peak_rss_mb":   {median(rss), "MB"},
	}
	t, err := percentile(lat, tail)
	if err != nil {
		return m, fmt.Errorf("tail_ms: %w", err)
	}
	m["tail_ms"] = metric{t, "ms"}
	return m, nil
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses when fewer than minBeyond samples lie above that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// opsForTail is the fewest samples whose p-quantile has minBeyond
// samples above it.
func opsForTail(p float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(p*float64(n))) < minBeyond {
		n++
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload does not exercise reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"cli.user_ms", "ms/op"}, {"cli.sys_ms", "ms/op"}, {"cli.minor_faults", "count/op"},
	{"spec.cells", "count/op"}, {"spec.cell_ms", "ms"}, {"spec.longest_cell_ms", "ms"},
	{"spec.acquire_ms", "ms/op"}, {"spec.simulate_ms", "ms/op"}, {"spec.release_ms", "ms/op"},
	{"spec.render_ms", "ms/op"},
	{"core.acquires", "count/op"}, {"core.news", "count/op"}, {"core.pool_idle", "count"},
	{"machine.pram_ops", "count/op"}, {"machine.steps", "count/op"}, {"machine.ns_per_pram_op", "ns"},
	{"machine.bulk_descriptors", "count/op"}, {"machine.bulk_analytic_ratio", "ratio"},
	{"machine.serial_steps", "count/op"}, {"machine.gang_dispatches", "count/op"},
	{"sweep.points", "count/op"}, {"sweep.violating_cells", "count/op"}, {"sweep.point_ms", "ms"},
	{"sweep.longest_point_ms", "ms"}, {"sweep.render_ms", "ms/op"},
	{"serve.ready_ms", "ms"}, {"dynamic.define_ms", "ms"},
	{"serve.hot_ms", "ms"}, {"serve.hot_tail_ms", "ms"}, {"serve.cold_ms", "ms"}, {"serve.cold_tail_ms", "ms"},
	{"serve.hot_cached_ratio", "ratio"}, {"serve.submit_ms", "ms"}, {"serve.artifact_ms", "ms"},
	{"serve.polls_per_cold", "count"}, {"serve.handler_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
	{"serve.job_cells_ms", "ms"}, {"serve.job_render_ms", "ms"},
	{"serve.cache_misses", "count"}, {"serve.rejected", "count"}, {"serve.gc_cycles", "count/op"},
	{"serve.heap_mb", "MB"}, {"obs.flight_events_per_op", "count"},
}

// layerTail is the percentile behind the per-layer hot and cold tails.
const layerTail = 0.9

// newLayers starts a traced run's metrics with every per-layer metric at
// 0, the value of a layer the workload does not run.
func newLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// set records a per-layer metric, keeping its declared unit.
func set(m map[string]metric, name string, v float64) {
	l, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	l.Value = v
	m[name] = l
}
