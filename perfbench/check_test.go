package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/sweep"
)

// The checkers are exercised on real output rendered in process, then
// on deliberate corruptions of it, each of which must be rejected.

func regenResults(t *testing.T) []spec.Result {
	t.Helper()
	sizes := map[string][]int{"table1": {1024}}
	var out []spec.Result
	for _, e := range exp.Registry() {
		sz := e.DefaultSizes
		if s, ok := sizes[e.Name]; ok {
			sz = s
		}
		res := (&spec.Runner{Parallel: 2}).Run(e, sz, 7)
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func regenDoc(t *testing.T, results []spec.Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Results []spec.Result `json:"results"`
	}{results})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func find(results []spec.Result, name string) *spec.Result {
	for i := range results {
		if results[i].Experiment == name {
			return &results[i]
		}
	}
	return nil
}

func docOf(t *testing.T, r spec.Result) resultDoc {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCheckRegenDocRejectsCorruption(t *testing.T) {
	base := regenResults(t)
	if err := checkRegenDoc(regenDoc(t, base)); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	corruptions := map[string]func(rs []spec.Result){
		"ops split": func(rs []spec.Result) { find(rs, "table1").Cells[0].Measurements[0].Stats.ReadOps++ },
		"time below steps": func(rs []spec.Result) {
			s := &find(rs, "table1").Cells[0].Measurements[0].Stats
			s.Time = s.Steps - 1
		},
		"pt_work below time": func(rs []spec.Result) {
			s := &find(rs, "compaction").Cells[0].Measurements[0].Stats
			s.PTWork = s.Time - 1
		},
		"qrqw time below contention": func(rs []spec.Result) {
			s := &find(rs, "table2").Cells[0].Measurements[0].Stats
			s.SumContention = s.Time + 1
		},
		"erew contention": func(rs []spec.Result) { find(rs, "table1").Cells[0].Measurements[1].Stats.MaxContention = 2 },
		"failed cell":     func(rs []spec.Result) { find(rs, "lowerbound").Cells[0].Err = os.ErrInvalid },
		"missing experiment": func(rs []spec.Result) {
			find(rs, "fig1").Experiment = "figure"
		},
	}
	for name, corrupt := range corruptions {
		rs := regenResults(t)
		corrupt(rs)
		if err := checkRegenDoc(regenDoc(t, rs)); err == nil {
			t.Errorf("%s: corrupted document accepted", name)
		}
	}
}

func TestShapeCheckersRejectCorruption(t *testing.T) {
	rs := regenResults(t)
	t2, lb, cp := docOf(t, *find(rs, "table2")), docOf(t, *find(rs, "lowerbound")), docOf(t, *find(rs, "compaction"))
	if err := checkTableII(t2); err != nil {
		t.Fatal(err)
	}
	if err := checkLowerBound(lb); err != nil {
		t.Fatal(err)
	}
	if err := checkCompaction(cp); err != nil {
		t.Fatal(err)
	}
	// Table II: make the QRQW dart thrower no faster than the scan one.
	for i, c := range t2.Cells {
		if strings.HasPrefix(c.Cell, "dart-throwing for QRQW") {
			t2.Cells[i].Measurements[0].Stats.Time = 1 << 40
			break
		}
	}
	if checkTableII(t2) == nil {
		t.Error("table2 ordering violation accepted")
	}
	last := &lb.Cells[len(lb.Cells)-1].Measurements[0].Stats
	last.Time = 0
	if checkLowerBound(lb) == nil {
		t.Error("lowerbound drop accepted")
	}
	for i, c := range cp.Cells {
		for j, m := range c.Measurements {
			if m.Series == "QRQW" {
				cp.Cells[i].Measurements[j].Stats.Time = int64(m.N) // the gap now shrinks with n
			}
		}
	}
	if checkCompaction(cp) == nil {
		t.Error("narrowing compaction gap accepted")
	}
}

func TestCheckFig1RejectsCorruption(t *testing.T) {
	e, _ := exp.Find("fig1")
	text := e.Render((&spec.Runner{}).Run(e, nil, 7))
	if err := checkFig1([]byte(text)); err != nil {
		t.Fatalf("real artifact rejected: %v\n%s", err, text)
	}
	perm := regexp.MustCompile(`(generated \(.*?\): )\[[0-9 ]*\]`)
	for name, repl := range map[string]string{
		"two cycles":      "${1}[1 0 3 2 5 4 7 6]",
		"not permutation": "${1}[1 1 2 3 4 5 6 7]",
		"fixed point":     "${1}[0]",
	} {
		bad := perm.ReplaceAllString(text, repl)
		if bad == text {
			t.Fatalf("%s: corruption did not apply", name)
		}
		// The artifact still claims a single cycle; the checker must not
		// believe it.
		if !strings.Contains(bad, "single cycle: true") {
			t.Fatalf("%s: claim missing", name)
		}
		if checkFig1([]byte(bad)) == nil {
			t.Errorf("%s: corrupted permutation accepted", name)
		}
	}
}

func sweepResult(t *testing.T) sweep.Result {
	t.Helper()
	e, _ := exp.Find("table1")
	plan, err := sweep.Normalize(e, sweep.Plan{Sizes: []int{1024, 2048}, Seeds: []uint64{7}})
	if err != nil {
		t.Fatal(err)
	}
	return (&sweep.Runner{}).Run(e, plan)
}

func sweepDocs(t *testing.T, r sweep.Result) (text, doc []byte) {
	t.Helper()
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(sweep.RenderText(r) + "\n"), doc
}

func TestSweepCheckersRejectCorruption(t *testing.T) {
	text, doc := sweepDocs(t, sweepResult(t))
	if err := checkSweepText(text); err != nil {
		t.Fatalf("real text rejected: %v\n%s", err, text)
	}
	if err := checkSweepDoc(doc); err != nil {
		t.Fatalf("real document rejected: %v", err)
	}
	point := func(r *sweep.Result, model string) *sweep.Point {
		for i := range r.Points {
			if r.Points[i].Model == model {
				return &r.Points[i]
			}
		}
		t.Fatalf("no %s point", model)
		return nil
	}
	corruptions := map[string]func(r *sweep.Result){
		"crcw slower": func(r *sweep.Result) { point(r, "CRCW").Time = point(r, "QRQW").Time + 1 },
		"crcw steps":  func(r *sweep.Result) { point(r, "CRCW").Steps++; point(r, "CRCW").Histogram[0].Steps++ },
		"histogram":   func(r *sweep.Result) { point(r, "QRQW").Histogram[0].Steps++ },
		"qrqw violation": func(r *sweep.Result) {
			p := point(r, "QRQW")
			p.Violations++
			p.Cells[0].Err = "concurrent-read violation at step 2 on QRQW (4-way)"
		},
		"erew other failure": func(r *sweep.Result) {
			p := point(r, "EREW")
			for i := range p.Cells {
				if p.Cells[i].Err != "" {
					p.Cells[i].Err = "cell panicked: index out of range"
					return
				}
			}
			t.Fatal("no failed EREW cell")
		},
	}
	for name, bad := range map[string]string{
		"empty":           "",
		"columns swapped": strings.Replace(string(text), "QRQW           CRCW", "CRCW           QRQW", 1),
		"mark first":      regexp.MustCompile(`(?m)^(\s+1024)\s+\d+`).ReplaceAllString(string(text), "$1 !1"),
	} {
		if bad == string(text) {
			t.Fatalf("%s: corruption did not apply", name)
		}
		if checkSweepText([]byte(bad)) == nil {
			t.Errorf("%s: corrupted text accepted", name)
		}
	}
	for name, corrupt := range corruptions {
		r := sweepResult(t)
		corrupt(&r)
		text, doc := sweepDocs(t, r)
		if checkSweepText(text) == nil {
			t.Errorf("%s: corrupted text accepted", name)
		}
		if checkSweepDoc(doc) == nil {
			t.Errorf("%s: corrupted document accepted", name)
		}
	}
}

// A cold serve_mix result of the stored definition, whose measurements
// name their model in the series, must pass accounting; a corrupted one
// must not.
func TestCheckAccountingOnDefinition(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", definitionFile))
	if err != nil {
		t.Fatal(err)
	}
	def, derr := dynamic.Parse(raw, dynamic.DefaultLimits())
	if derr != nil {
		t.Fatal(derr)
	}
	res := (&spec.Runner{Parallel: 1}).Run(dynamic.Compile(def), []int{1024}, 7)
	if err := checkAccounting(docOf(t, res)); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}
	for i, m := range res.Cells[0].Measurements {
		if m.Series == "EREW" {
			res.Cells[0].Measurements[i].Stats.MaxContention = 3
			break
		}
	}
	if checkAccounting(docOf(t, res)) == nil {
		t.Error("EREW contention above 1 accepted")
	}
}

func TestPercentileRefusesShortTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if v, err := percentile(xs(40), 0.75); err != nil || v != 30 {
		t.Errorf("p75 of 1..40 = %v, %v; want 30", v, err)
	}
	if _, err := percentile(xs(39), 0.75); err == nil {
		t.Error("p75 of 39 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	for p, want := range map[float64]int{0.75: 40, 0.9: 100, 0.99: 1000} {
		if got := opsForTail(p); got != want {
			t.Errorf("opsForTail(%v) = %d, want %d", p, got, want)
		}
		if _, err := percentile(xs(opsForTail(p)), p); err != nil {
			t.Errorf("p%v of opsForTail samples refused: %v", p*100, err)
		}
	}
}
