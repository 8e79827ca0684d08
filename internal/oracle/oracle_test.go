package oracle

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/nir"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

// soakPrograms are the standard verification subjects: the paper's
// seven experiment kernels at reduced sizes.
func soakPrograms() []Program {
	return []Program{
		{Name: "swe", File: "swe.f90", Source: workload.SWE(16, 2)},
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(16)},
		{Name: "fig10", File: "fig10.f90", Source: workload.Fig10(16)},
		{Name: "fig11", File: "fig11.f90", Source: workload.Fig11(16, 4)},
		{Name: "fig12", File: "fig12.f90", Source: workload.Fig12(16)},
		{Name: "stencil", File: "stencil.f90", Source: workload.Stencil(16, 2)},
		{Name: "spill", File: "spill.f90", Source: workload.SpillKernel(64, 10)},
	}
}

// TestVerifyAgreesOnWorkloads: the interpreter and both machine
// backends agree on every experiment kernel.
func TestVerifyAgreesOnWorkloads(t *testing.T) {
	for _, p := range soakPrograms() {
		rep, err := Verify(p.File, p.Source, Options{})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if rep.Divergence != nil {
			t.Errorf("%s: unexpected divergence %s", p.Name, rep.Divergence)
		}
		if rep.Vars == 0 || rep.Elems == 0 {
			t.Errorf("%s: nothing compared (vars=%d elems=%d)", p.Name, rep.Vars, rep.Elems)
		}
	}
}

// TestVerifyShardedExecutor: differential verification holds with the
// PEAC engine serial and sharded on both machine backends. The grid is
// sized so every field straddles the executor's chunk boundary (70x70 =
// 4900 elements > one 4096-element chunk), exercising cross-chunk
// sharding against the AST interpreter.
func TestVerifyShardedExecutor(t *testing.T) {
	for _, workers := range []int{0, 2, 4, -1} {
		rep, err := Verify("swe.f90", workload.SWE(70, 2), Options{ExecWorkers: workers})
		if err != nil {
			t.Errorf("workers=%d: %v", workers, err)
			continue
		}
		if rep.Divergence != nil {
			t.Errorf("workers=%d: unexpected divergence %s", workers, rep.Divergence)
		}
		if rep.Vars == 0 || rep.Elems == 0 {
			t.Errorf("workers=%d: nothing compared (vars=%d elems=%d)", workers, rep.Vars, rep.Elems)
		}
	}
}

// TestBrokenBackendOpCaught: a deliberately corrupted backend result is
// caught with a first-divergence report naming the variable and the
// backend pair. The corruption rides the test-only perturbation hook,
// which fires after each routine dispatch on the shared PEAC executor.
func TestBrokenBackendOpCaught(t *testing.T) {
	cm2.TestOnlyPerturb = func(routine string, store *rt.Store) {
		if a := store.Arrays["u"]; a != nil && len(a.Data) > 0 {
			a.Data[0] += 1.0
		}
	}
	defer func() { cm2.TestOnlyPerturb = nil }()

	rep, err := Verify("swe.f90", workload.SWE(8, 1), Options{})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
	d := rep.Divergence
	if d == nil {
		t.Fatal("no divergence in report")
	}
	if d.Var != "u" {
		t.Errorf("divergence at %q, want u", d.Var)
	}
	if d.A != "interp" || (d.B != "cm2" && d.B != "cm5") {
		t.Errorf("backend pair %s/%s, want interp vs a machine backend", d.A, d.B)
	}
	if !strings.Contains(err.Error(), "u(") && !strings.Contains(err.Error(), "u:") {
		t.Errorf("error does not name the variable: %v", err)
	}
}

// TestVerifyULPTolerance: values within the envelope pass, values
// beyond it are reported with their ULP distance.
func TestVerifyULPTolerance(t *testing.T) {
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1.0, 1.0, 0},
		{1.0, math.Nextafter(1.0, 2.0), 1},
		{0.0, math.Copysign(0, -1), 0},
		{math.NaN(), math.NaN(), 0},
		{math.NaN(), 1.0, math.MaxUint64},
		{-1.0, math.Nextafter(-1.0, 0), 1},
		{1.0, 2.0, 1 << 52},
	}
	for _, c := range cases {
		if got := ULPDist(c.a, c.b); got != c.want {
			t.Errorf("ULPDist(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := ULPDist(c.b, c.a); got != c.want {
			t.Errorf("ULPDist(%v, %v) = %d, want %d (asymmetric)", c.b, c.a, got, c.want)
		}
	}
}

// TestSoakShort: a small sweep across both backends with the default
// plans completes with zero fault-invariance violations. This is the
// tier-1 soak smoke (runs under -race in make check).
func TestSoakShort(t *testing.T) {
	progs := []Program{
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(8)},
		{Name: "stencil", File: "stencil.f90", Source: workload.Stencil(8, 2)},
	}
	svc := driver.New(4)
	rep, err := Soak(context.Background(), svc, progs, SoakOptions{
		Seeds:     []int64{1, 2},
		MaxCycles: 500_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(progs) * 2 * 2 * len(DefaultPlans())
	if rep.Runs != wantRuns {
		t.Errorf("runs = %d, want %d", rep.Runs, wantRuns)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("fault-invariance violations: %+v", rep.Violations)
	}
	if len(rep.Errors) != 0 {
		t.Errorf("run errors: %v", rep.Errors)
	}
}

// TestDiffResultsBitExact: the soak comparison is 0-ULP strict — a
// single-ULP nudge in one lane is a divergence, and identical results
// (including NaN lanes) are not.
func TestDiffResultsBitExact(t *testing.T) {
	mk := func(v float64) *cm2.Result {
		st := &rt.Store{
			Arrays:  map[string]*rt.Array{"u": {Kind: nir.Float64, Ext: []int{2}, Lo: []int{1}, Data: []float64{1.5, v}}},
			Scalars: map[string]float64{},
			Kinds:   map[string]nir.ScalarKind{"u": nir.Float64},
		}
		return &cm2.Result{Output: []string{"ok"}, Store: st}
	}
	if d := diffResults("a", "b", mk(2.5), mk(2.5)); d != nil {
		t.Errorf("identical results diverge: %s", d)
	}
	if d := diffResults("a", "b", mk(math.NaN()), mk(math.NaN())); d != nil {
		t.Errorf("matching NaN lanes diverge: %s", d)
	}
	d := diffResults("a", "b", mk(2.5), mk(math.Nextafter(2.5, 3)))
	if d == nil {
		t.Fatal("one-ULP nudge not caught")
	}
	if d.Var != "u" || d.Index != 1 {
		t.Errorf("divergence at %s[%d], want u[1]", d.Var, d.Index)
	}
}

// TestMinimizeZeroesIrrelevantChannels: only the channel the predicate
// depends on survives minimization.
func TestMinimizeZeroesIrrelevantChannels(t *testing.T) {
	plan := faults.Plan{Seed: 7, Drop: 0.1, Corrupt: 0.2, Delay: 0.3, Stall: 0.4, PEKill: 0.5,
		Events: []faults.Event{{At: 3, Kind: faults.KillPE, PE: 1}}}
	got := minimize(plan, func(p faults.Plan) bool { return p.Corrupt > 0 })
	if got.Corrupt != 0.2 {
		t.Errorf("corrupt zeroed: %+v", got)
	}
	if got.Drop != 0 || got.Delay != 0 || got.Stall != 0 || got.PEKill != 0 || got.Events != nil {
		t.Errorf("irrelevant channels survived: %+v", got)
	}
	if got.Seed != 7 {
		t.Errorf("seed changed: %+v", got)
	}
}

// TestSpecOfRoundTrips: the rendered spec parses back to the same plan.
func TestSpecOfRoundTrips(t *testing.T) {
	plan := faults.Plan{Seed: 9, Drop: 0.05, PEKill: 0.02, NoDegrade: true,
		Events: []faults.Event{{At: 10, Kind: faults.KillPE, PE: 3}, {At: 20, Kind: faults.FatalStop}}}
	spec := specOf(plan)
	got, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("specOf produced unparseable %q: %v", spec, err)
	}
	if got.Seed != 9 || got.Drop != 0.05 || got.PEKill != 0.02 || !got.NoDegrade || len(got.Events) != 2 {
		t.Errorf("round trip lost fields: %q -> %+v", spec, got)
	}
}

// TestWriteRepro: the reproducer document carries schema, spec, source,
// and divergence, and lands where the report says.
func TestWriteRepro(t *testing.T) {
	dir := t.TempDir()
	v := Violation{Program: "swe n=8", Backend: "cm2", Seed: 3, Spec: "seed=3,drop=0.05",
		Divergence: &Divergence{Var: "u", Index: 2, A: "cm2/baseline", B: "cm2/faulted", AVal: "1", BVal: "2", Kind: "real"}}
	path, err := writeRepro(dir, v, "program t\nend program t\n")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("repro written to %s, want under %s", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc repro
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "f90y-repro/v1" || doc.Spec != v.Spec || doc.Source == "" || doc.Divergence == nil {
		t.Errorf("repro document incomplete: %+v", doc)
	}
}

// TestSoakRecordsHardFaultAsError: a plan with an unrecoverable fatal
// event makes runs fail; the failures land in Errors, not Violations.
func TestSoakRecordsHardFaultAsError(t *testing.T) {
	svc := driver.New(2)
	rep, err := Soak(context.Background(), svc, []Program{
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(8)},
	}, SoakOptions{
		Seeds: []int64{1},
		Plans: []faults.Plan{{Events: []faults.Event{{At: 1, Kind: faults.FatalStop}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) == 0 {
		t.Error("fatal-stop runs reported no errors")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("hard faults misclassified as invariance violations: %+v", rep.Violations)
	}
}
