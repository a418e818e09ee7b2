package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload for one second, traced, against
// binaries built from this checkout, and requires every op and check to
// pass and every per-layer metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the program")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	if err := buildBinaries(ctx, root, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"regen", "serve_mix", "sweep"} {
		t.Run(name, func(t *testing.T) {
			b := &bench{root: root, cli: filepath.Join(dir, "lowcontend"), daemon: filepath.Join(dir, "lowcontendd"),
				seed: 3, seconds: time.Second, trace: true, crosscheck: 2}
			if name == "serve_mix" {
				b.seconds = 2 * time.Second // enough cold ops for their p90
			}
			w := workloads[name]
			o, err := w.run(ctx, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := o.report(w, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, o.problems)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if _, err := o.endToEnd(0.5); err != nil && len(o.lat) > 20 {
				t.Errorf("end-to-end metrics: %v", err)
			}
		})
	}
}
