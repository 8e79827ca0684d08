package trace

import (
	"context"
	"testing"

	"f90y/internal/workload"
	"f90y/perfbench/jobs"
)

// The traced composition must reproduce the untraced run exactly: the
// final store bit for bit and every modeled statistic, with and without
// checkpoint spills, for hot and cold jobs on both targets.
func TestTracedEqualsUntracedOnSmallSWE(t *testing.T) {
	swe := jobs.Job{Entry: "swe", Target: "cm2", File: "swe.f90", Source: workload.SWE(32, 2)}
	cold := swe
	cold.Source = jobs.Entry{ID: "swe", Program: "swe", Source: swe.Source}.Variant("_k1")
	cold.Cold = true
	cm5 := swe
	cm5.Target = "cm5"
	list := []jobs.Job{swe, cold, cm5, swe}
	for _, spill := range []string{"", t.TempDir()} {
		rp, err := ReplayJobs(context.Background(), []jobs.Job{swe}, list, spill)
		if err != nil {
			t.Fatal(err)
		}
		if len(rp.Mismatches) != 0 {
			t.Fatalf("spill=%q: traced run differs: %v", spill, rp.Mismatches)
		}
		l := rp.Layers
		if rp.Jobs != len(list) || l.CM2Runs != 3 || l.CM5Runs != 1 || l.Compiles != 1 {
			t.Fatalf("spill=%q: jobs=%d cm2=%d cm5=%d compiles=%d", spill, rp.Jobs, l.CM2Runs, l.CM5Runs, l.Compiles)
		}
		if len(rp.CompileMissMs) != 1 || len(rp.CompileHitMs) != len(list) {
			t.Fatalf("compile samples: %d misses, %d hits", len(rp.CompileMissMs), len(rp.CompileHitMs))
		}
		if l.Self() > rp.Traced {
			t.Fatalf("layer self times %v exceed the traced wall %v", l.Self(), rp.Traced)
		}
		if (spill != "") != (l.Spills > 0) {
			t.Fatalf("spill=%q but %d spills", spill, l.Spills)
		}
		if l.Dispatches == 0 || l.CommCalls == 0 || l.Comm["grid"] == 0 {
			t.Fatalf("layers not exercised: %+v", l)
		}
	}
}
