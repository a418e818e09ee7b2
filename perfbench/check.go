package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The checkers below judge the program's outputs against properties the
// paper's cost model and algorithms must have, or against computations
// made here. They decode the program's JSON into the benchmark's own
// types and never compare with stored copies of earlier output.

type resultDoc struct {
	Experiment string    `json:"experiment"`
	Cells      []cellDoc `json:"cells"`
}

type cellDoc struct {
	Cell         string           `json:"cell"`
	Error        string           `json:"error"`
	Measurements []measurementDoc `json:"measurements"`
}

type measurementDoc struct {
	Group  string   `json:"group"`
	Series string   `json:"series"`
	N      int      `json:"n"`
	Stats  statsDoc `json:"stats"`
	Note   string   `json:"note"`
}

type statsDoc struct {
	Steps         int64 `json:"steps"`
	Time          int64 `json:"time"`
	Ops           int64 `json:"ops"`
	PTWork        int64 `json:"pt_work"`
	ReadOps       int64 `json:"read_ops"`
	WriteOps      int64 `json:"write_ops"`
	ComputeOps    int64 `json:"compute_ops"`
	MaxContention int64 `json:"max_contention"`
	SumContention int64 `json:"sum_contention"`
}

// decodeResults reads the `-json -results-only` document of the CLI.
func decodeResults(doc []byte) ([]resultDoc, error) {
	var d struct {
		Results []resultDoc `json:"results"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("decode results: %w", err)
	}
	if len(d.Results) == 0 {
		return nil, fmt.Errorf("decode results: no results")
	}
	return d.Results, nil
}

// chargedModel names the contention model a measurement was charged
// under: its series when that names a model, else the model its
// experiment charges every cell under (Table II runs each algorithm on a
// QRQW machine). Empty means no model-specific rule applies.
func chargedModel(experiment string, m measurementDoc) string {
	switch s := strings.ToUpper(m.Series); s {
	case "QRQW", "EREW", "CRCW":
		return s
	}
	if experiment == "table2" {
		return "QRQW"
	}
	return ""
}

// checkAccounting verifies Definition 2.3 bookkeeping on every charged
// measurement of every cell: ops = read + write + compute ops,
// time >= steps >= 1, pt_work >= time; on QRQW time >= sum of per-step
// maximum contention; on EREW (and for EREW algorithms) a maximum
// contention of exactly 1. A failed cell fails the check.
func checkAccounting(r resultDoc) error {
	if len(r.Cells) == 0 {
		return fmt.Errorf("%s: no cells", r.Experiment)
	}
	measured := 0
	for _, c := range r.Cells {
		if c.Error != "" {
			return fmt.Errorf("%s/%s failed: %s", r.Experiment, c.Cell, c.Error)
		}
		measured += len(c.Measurements)
		for _, m := range c.Measurements {
			if m.Note != "" {
				continue
			}
			s := m.Stats
			where := fmt.Sprintf("%s/%s %s %s", r.Experiment, c.Cell, m.Group, m.Series)
			switch {
			case s.Ops != s.ReadOps+s.WriteOps+s.ComputeOps:
				return fmt.Errorf("%s: ops %d != read %d + write %d + compute %d", where, s.Ops, s.ReadOps, s.WriteOps, s.ComputeOps)
			case s.Steps < 1 || s.Time < s.Steps:
				return fmt.Errorf("%s: want time %d >= steps %d >= 1", where, s.Time, s.Steps)
			case s.PTWork < s.Time:
				return fmt.Errorf("%s: pt_work %d < time %d", where, s.PTWork, s.Time)
			}
			model := chargedModel(r.Experiment, m)
			if model == "QRQW" && s.Time < s.SumContention {
				return fmt.Errorf("%s: QRQW time %d < sum_contention %d", where, s.Time, s.SumContention)
			}
			if (model == "EREW" || strings.HasSuffix(m.Group, "(EREW)")) && s.MaxContention != 1 {
				return fmt.Errorf("%s: EREW max_contention %d != 1", where, s.MaxContention)
			}
		}
	}
	if measured == 0 {
		return fmt.Errorf("%s: no measurements", r.Experiment)
	}
	return nil
}

// checkRegenDoc checks the full-registry JSON rendition: accounting on
// every experiment, and the paper's shapes.
func checkRegenDoc(doc []byte) error {
	results, err := decodeResults(doc)
	if err != nil {
		return err
	}
	byName := map[string]resultDoc{}
	for _, r := range results {
		if err := checkAccounting(r); err != nil {
			return err
		}
		byName[r.Experiment] = r
	}
	for _, name := range []string{"table1", "table2", "fig1", "lowerbound", "compaction"} {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("results lack experiment %s", name)
		}
	}
	if err := checkTableII(byName["table2"]); err != nil {
		return err
	}
	if err := checkLowerBound(byName["lowerbound"]); err != nil {
		return err
	}
	return checkCompaction(byName["compaction"])
}

// checkTableII: at every size, dart throwing for QRQW beats dart
// throwing with scans, which beats the sorting-based EREW algorithm.
func checkTableII(r resultDoc) error {
	times := map[int]map[string]int64{}
	for _, c := range r.Cells {
		for _, m := range c.Measurements {
			if times[m.N] == nil {
				times[m.N] = map[string]int64{}
			}
			times[m.N][m.Group] = m.Stats.Time
		}
	}
	if len(times) < 2 {
		return fmt.Errorf("table2: want at least two sizes, got %d", len(times))
	}
	for n, t := range times {
		q, qok := t["dart-throwing for QRQW"]
		s, sok := t["dart-throwing with scans"]
		e, eok := t["sorting-based (EREW)"]
		if !qok || !sok || !eok {
			return fmt.Errorf("table2: n=%d lacks an algorithm: %v", n, t)
		}
		if !(q < s && s < e) {
			return fmt.Errorf("table2: n=%d ordering qrqw(%d) < scans(%d) < sorting(%d) violated", n, q, s, e)
		}
	}
	return nil
}

// checkLowerBound: Theorem 3.2's load-balancing time never falls as L
// grows, and grows over the whole range.
func checkLowerBound(r resultDoc) error {
	var ms []measurementDoc
	for _, c := range r.Cells {
		ms = append(ms, c.Measurements...)
	}
	if len(ms) < 2 {
		return fmt.Errorf("lowerbound: want at least two L values, got %d", len(ms))
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].N < ms[j].N })
	for i := 1; i < len(ms); i++ {
		if ms[i].Stats.Time < ms[i-1].Stats.Time {
			return fmt.Errorf("lowerbound: time fell from %d (L=%d) to %d (L=%d)",
				ms[i-1].Stats.Time, ms[i-1].N, ms[i].Stats.Time, ms[i].N)
		}
	}
	if ms[len(ms)-1].Stats.Time <= ms[0].Stats.Time {
		return fmt.Errorf("lowerbound: time did not grow with L")
	}
	return nil
}

// checkCompaction: the EREW-minus-QRQW time gap of linear compaction is
// wider at the largest size than at the smallest.
func checkCompaction(r resultDoc) error {
	gap := map[int]int64{}
	for _, c := range r.Cells {
		for _, m := range c.Measurements {
			switch m.Series {
			case "EREW":
				gap[m.N] += m.Stats.Time
			case "QRQW":
				gap[m.N] -= m.Stats.Time
			}
		}
	}
	var sizes []int
	for n := range gap {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	if len(sizes) < 2 {
		return fmt.Errorf("compaction: want at least two sizes, got %d", len(sizes))
	}
	first, last := sizes[0], sizes[len(sizes)-1]
	if gap[last] <= gap[first] {
		return fmt.Errorf("compaction: EREW-QRQW gap did not widen (n=%d: %d, n=%d: %d)", first, gap[first], last, gap[last])
	}
	return nil
}

var fig1Generated = regexp.MustCompile(`(?m)^generated \(.*?\): \[([0-9 ]*)\]`)

// checkFig1 walks the generated permutation Figure 1 prints and
// verifies that it is a permutation of 0..n-1 forming a single cycle.
// The artifact's own "single cycle" claim is not consulted.
func checkFig1(text []byte) error {
	m := fig1Generated.FindSubmatch(text)
	if m == nil {
		return fmt.Errorf("fig1: no generated permutation in the artifact")
	}
	var p []int
	for _, f := range strings.Fields(string(m[1])) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("fig1: bad entry %q", f)
		}
		p = append(p, v)
	}
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return fmt.Errorf("fig1: %v is not a permutation", p)
		}
		seen[v] = true
	}
	if len(p) < 2 {
		return fmt.Errorf("fig1: %v is too short to judge", p)
	}
	length := 1
	for i := p[0]; i != 0; i = p[i] {
		length++
	}
	if length != len(p) {
		return fmt.Errorf("fig1: %v is not a single cycle (cycle through 0 has length %d)", p, length)
	}
	return nil
}

// sweepDoc is the `sweep -json` document.
type sweepDoc struct {
	Models []string `json:"models"`
	Sizes  []int    `json:"sizes"`
	Points []struct {
		Model string `json:"model"`
		Size  int    `json:"size"`
		Time  int64  `json:"time"`
		Steps int64  `json:"steps"`
		Ops   int64  `json:"ops"`
		Cells []struct {
			Cell string `json:"cell"`
			Err  string `json:"error"`
		} `json:"cells"`
		Violations int `json:"violations"`
		Errors     int `json:"errors"`
		Histogram  []struct {
			Steps int64 `json:"steps"`
		} `json:"histogram"`
	} `json:"points"`
}

var violationText = regexp.MustCompile(`^concurrent-(read|write) violation at step \d+ on EREW \(\d+-way\)$`)

// checkSweepDoc checks a table1 sweep over qrqw, crcw and erew per
// size: QRQW and CRCW complete every cell with identical steps and ops
// and CRCW time <= QRQW time; every point's kappa histogram sums to its
// traced steps; EREW cells fail only by concurrent-read or
// concurrent-write violations.
func checkSweepDoc(doc []byte) error {
	var d sweepDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("decode sweep: %w", err)
	}
	if len(d.Points) != len(d.Models)*len(d.Sizes) || len(d.Points) == 0 {
		return fmt.Errorf("sweep: %d points for %d models x %d sizes", len(d.Points), len(d.Models), len(d.Sizes))
	}
	type key struct {
		model string
		size  int
	}
	at := map[key]int{}
	for i, p := range d.Points {
		at[key{p.Model, p.Size}] = i
		var hist int64
		for _, b := range p.Histogram {
			hist += b.Steps
		}
		if hist != p.Steps {
			return fmt.Errorf("sweep %s n=%d: histogram sums to %d steps, point traced %d", p.Model, p.Size, hist, p.Steps)
		}
		if p.Errors != 0 {
			return fmt.Errorf("sweep %s n=%d: %d cells failed other than by a violation", p.Model, p.Size, p.Errors)
		}
		for _, c := range p.Cells {
			if c.Err != "" && (p.Model != "EREW" || !violationText.MatchString(c.Err)) {
				return fmt.Errorf("sweep %s n=%d %s: unexpected failure %q", p.Model, p.Size, c.Cell, c.Err)
			}
		}
	}
	for _, n := range d.Sizes {
		qi, qok := at[key{"QRQW", n}]
		ci, cok := at[key{"CRCW", n}]
		if !qok || !cok {
			return fmt.Errorf("sweep n=%d: missing a QRQW or CRCW point", n)
		}
		q, c := d.Points[qi], d.Points[ci]
		if q.Violations != 0 || c.Violations != 0 {
			return fmt.Errorf("sweep n=%d: QRQW/CRCW cells violated (%d, %d)", n, q.Violations, c.Violations)
		}
		if q.Steps != c.Steps || q.Ops != c.Ops {
			return fmt.Errorf("sweep n=%d: QRQW steps/ops %d/%d != CRCW %d/%d", n, q.Steps, q.Ops, c.Steps, c.Ops)
		}
		if c.Time > q.Time {
			return fmt.Errorf("sweep n=%d: CRCW time %d > QRQW time %d", n, c.Time, q.Time)
		}
	}
	return nil
}

// checkSweepText checks the same properties on the text artifact the
// timed ops print: no failure marks in the QRQW and CRCW columns and
// CRCW time <= QRQW time on every size row; each model's histogram
// column sums to the steps of its summary row; QRQW and CRCW summaries
// agree on steps and ops; every listed failure is an EREW
// concurrent-read or concurrent-write violation.
func checkSweepText(text []byte) error {
	sec := sections(string(text))
	matrix, hist, summary := sec["charged time by model"], sec["kappa histogram"], sec["model summary"]
	if len(matrix) < 2 || len(hist) < 2 || len(summary) < 2 {
		return fmt.Errorf("sweep text: missing matrix, histogram or summary section")
	}
	models := strings.Fields(hist[0])
	if len(models) < 3 || models[1] != "QRQW" || models[2] != "CRCW" {
		return fmt.Errorf("sweep text: histogram columns %q, want QRQW and CRCW first", hist[0])
	}
	models = models[1:]
	for _, row := range matrix[1:] {
		f := strings.Fields(row)
		var times []int64
		for i := 1; i < len(f); i++ {
			if strings.HasPrefix(f[i], "!") {
				if len(times) == 0 {
					return fmt.Errorf("sweep text: matrix row %q", row)
				}
				if len(times) <= 2 {
					return fmt.Errorf("sweep text: n=%s: %s cells failed under %s", f[0], f[i], models[len(times)-1])
				}
				continue
			}
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				continue // a ratio column
			}
			times = append(times, v)
		}
		if len(times) != len(models) {
			return fmt.Errorf("sweep text: matrix row %q has %d times for %d models", row, len(times), len(models))
		}
		if times[1] > times[0] {
			return fmt.Errorf("sweep text: n=%s: CRCW time %d > QRQW time %d", f[0], times[1], times[0])
		}
	}
	sums := make([]int64, len(models))
	for _, row := range hist[1:] {
		f := strings.Fields(row)
		if len(f) != len(models)+1 {
			return fmt.Errorf("sweep text: histogram row %q", row)
		}
		for i := range models {
			v, err := strconv.ParseInt(f[i+1], 10, 64)
			if err != nil {
				return fmt.Errorf("sweep text: histogram row %q", row)
			}
			sums[i] += v
		}
	}
	type agg struct{ viol, err, steps, ops int64 }
	byModel := map[string]agg{}
	for _, row := range summary[1:] {
		f := strings.Fields(row)
		if len(f) != 8 {
			return fmt.Errorf("sweep text: summary row %q", row)
		}
		var v [7]int64
		for i := range v {
			x, err := strconv.ParseInt(f[i+1], 10, 64)
			if err != nil {
				return fmt.Errorf("sweep text: summary row %q", row)
			}
			v[i] = x
		}
		byModel[f[0]] = agg{viol: v[1], err: v[2], steps: v[3], ops: v[5]}
	}
	for i, m := range models {
		a, ok := byModel[m]
		if !ok || a.steps != sums[i] {
			return fmt.Errorf("sweep text: %s histogram sums to %d steps, summary says %d", m, sums[i], a.steps)
		}
		if a.err != 0 {
			return fmt.Errorf("sweep text: %s has %d non-violation errors", m, a.err)
		}
	}
	q, c := byModel["QRQW"], byModel["CRCW"]
	if q.viol != 0 || c.viol != 0 || q.steps != c.steps || q.ops != c.ops {
		return fmt.Errorf("sweep text: QRQW %+v and CRCW %+v summaries disagree", q, c)
	}
	for _, row := range sec["cell failures"] {
		f := strings.SplitN(strings.TrimSpace(row), ": ", 2)
		if len(f) != 2 || !strings.HasPrefix(f[0], "EREW ") || !violationText.MatchString(f[1]) {
			return fmt.Errorf("sweep text: unexpected failure %q", row)
		}
	}
	return nil
}

// sections splits a text artifact into blank-line separated blocks,
// keyed by the start of each block's title line, holding the block's
// remaining lines.
func sections(text string) map[string][]string {
	out := map[string][]string{}
	for _, block := range strings.Split(text, "\n\n") {
		lines := strings.Split(strings.Trim(block, "\n"), "\n")
		for _, title := range []string{"charged time by model", "kappa histogram", "model summary", "cell failures"} {
			if strings.HasPrefix(lines[0], title) {
				out[title] = lines[1:]
			}
		}
	}
	return out
}
