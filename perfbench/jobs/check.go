package jobs

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"f90y"
	"f90y/internal/ast"
	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/interp"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/oracle"
	"f90y/internal/rt"
)

//go:embed frozen.json
var frozenJSON []byte

// Frozen is the benchmark's frozen record (frozen.json): the offered
// rates of the open-loop phases and the modeled results every program
// must reproduce. Both are fixed numbers, never re-derived per run: a
// capacity gain must not move its own rates, and a simulator-only
// speedup must leave every simulated statistic identical.
type Frozen struct {
	Schema string           `json:"schema"`
	CPUs   int              `json:"cpus"`
	Notes  []string         `json:"notes"`
	Rates  map[string]Rates `json:"rates"`
	// Modeled maps ResultKey(entry, target) to its results.
	Modeled map[string]Modeled `json:"modeled"`
}

// Rates are a serve workload's two offered rates, in jobs per second,
// frozen at about a third and two thirds of its saturated throughput.
type Rates struct {
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

// Load parses the embedded frozen record.
func Load() (*Frozen, error) {
	var f Frozen
	if err := json.Unmarshal(frozenJSON, &f); err != nil {
		return nil, fmt.Errorf("jobs: frozen.json: %w", err)
	}
	return &f, nil
}

// Modeled is a run's simulated statistics: what the machine model
// computes, as opposed to what it costs the host to compute it.
type Modeled struct {
	HostCycles float64  `json:"host_cycles"`
	PECycles   float64  `json:"pe_cycles"`
	CommCycles float64  `json:"comm_cycles"`
	Flops      int64    `json:"flops"`
	NodeCalls  int      `json:"node_calls"`
	CommCalls  int      `json:"comm_calls"`
	Output     []string `json:"output"`
	// Per-class attribution; visible in process only (the server's
	// response carries the totals above).
	PEClass   map[string]float64 `json:"pe_class,omitempty"`
	CommClass map[string]float64 `json:"comm_class,omitempty"`
	HostClass map[string]float64 `json:"host_class,omitempty"`
}

// ModeledOf extracts the modeled statistics of a result.
func ModeledOf(r *cm2.Result) Modeled {
	return Modeled{
		HostCycles: r.HostCycles, PECycles: r.PECycles, CommCycles: r.CommCycles,
		Flops: r.Flops, NodeCalls: r.NodeCalls, CommCalls: r.CommCalls,
		Output:  append([]string{}, r.Output...),
		PEClass: r.PEClassCycles, CommClass: r.CommClassCycles, HostClass: r.HostClassCycles,
	}
}

// Totals drops the per-class maps, leaving the fields a server reports.
func (m Modeled) Totals() Modeled {
	m.PEClass, m.CommClass, m.HostClass = nil, nil, nil
	return m
}

// Mismatch describes the first field where got differs from want, or
// returns "" when they are identical.
func Mismatch(want, got Modeled) string {
	// A server omits an empty output; nil and empty mean the same.
	if len(want.Output) == 0 && len(got.Output) == 0 {
		want.Output, got.Output = nil, nil
	}
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			return fmt.Sprintf("%s: got %v, want %v", w.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return ""
}

// Reference runs e once per target through svc and checks every final
// store and output against the reference interpreter under the
// oracle's tolerance: reals within oracle.DefaultULPs, integers,
// logicals and PRINT output exact. It returns the checked results.
func Reference(ctx context.Context, svc *driver.Service, e Entry, targets ...string) (map[string]*cm2.Result, error) {
	out := map[string]*cm2.Result{}
	var ref *interp.Machine
	for _, t := range targets {
		rr := svc.Run(ctx, driver.Job{Name: e.ID, File: e.File(), Source: e.Source, Config: f90y.DefaultConfig(), Target: t})
		if rr.Err != nil {
			return nil, fmt.Errorf("%s on %s: %w", e.ID, t, rr.Err)
		}
		comp := rr.Artifact.Comp
		if ref == nil {
			var err error
			if ref, err = interp.Run(comp.AST); err != nil {
				return nil, fmt.Errorf("%s: interpreter: %w", e.ID, err)
			}
		}
		res := rr.Result()
		if err := CheckValues(comp.AST, comp.Program.Syms, ref, res.Store, res.Output); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", e.ID, t, err)
		}
		out[t] = res
	}
	return out, nil
}

// CheckValues compares a machine's final store and output with the
// interpreter's: every non-temporary variable, except DO and FORALL
// index variables, whose final values differ by design between the two.
func CheckValues(tree *ast.Program, syms *lower.SymTab, ref *interp.Machine, st *rt.Store, output []string) error {
	skip := loopVars(tree.Body, map[string]bool{})
	for _, sym := range syms.All() {
		if sym.Param || sym.Temp {
			continue
		}
		if sym.Shape != nil {
			a, ra := st.Arrays[sym.Name], ref.Array(sym.Name)
			if a == nil || ra == nil || len(a.Data) != ra.Size() {
				return fmt.Errorf("array %s missing or resized", sym.Name)
			}
			for i, v := range a.Data {
				if err := sameVal(sym.Kind, refLane(ra, i), v); err != nil {
					return fmt.Errorf("%s[%d]: %w", sym.Name, i, err)
				}
			}
			continue
		}
		if skip[sym.Name] {
			continue
		}
		rv, ok := ref.Scalar(sym.Name)
		if !ok {
			continue
		}
		want := rv.AsFloat()
		if rv.Kind == interp.KLogical {
			want = 0
			if rv.B {
				want = 1
			}
		}
		if err := sameVal(sym.Kind, want, st.Scalars[sym.Name]); err != nil {
			return fmt.Errorf("scalar %s: %w", sym.Name, err)
		}
	}
	if !reflect.DeepEqual(append([]string{}, ref.Output()...), append([]string{}, output...)) {
		return fmt.Errorf("output %q, interpreter printed %q", output, ref.Output())
	}
	return nil
}

func refLane(a *interp.Array, i int) float64 {
	switch {
	case a.I != nil:
		return float64(a.I[i])
	case a.B != nil:
		if a.B[i] {
			return 1
		}
		return 0
	}
	return a.F[i]
}

func sameVal(kind nir.ScalarKind, want, got float64) error {
	if kind == nir.Integer32 || kind == nir.Logical32 {
		if want != got {
			return fmt.Errorf("got %v, interpreter %v", got, want)
		}
		return nil
	}
	if d := oracle.ULPDist(want, got); d > oracle.DefaultULPs {
		return fmt.Errorf("got %v, interpreter %v (%d ULPs > %d)", got, want, d, oracle.DefaultULPs)
	}
	return nil
}

// loopVars collects DO and FORALL index variables.
func loopVars(stmts []ast.Stmt, vars map[string]bool) map[string]bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.DoLoop:
			vars[s.Var] = true
			loopVars(s.Body, vars)
		case *ast.DoWhile:
			loopVars(s.Body, vars)
		case *ast.If:
			loopVars(s.Then, vars)
			loopVars(s.Else, vars)
		case *ast.Forall:
			for _, ix := range s.Indexes {
				vars[ix.Var] = true
			}
		}
	}
	return vars
}

// SameStore reports whether two stores hold bit-identical values.
func SameStore(a, b *rt.Store) error {
	if len(a.Arrays) != len(b.Arrays) || len(a.Scalars) != len(b.Scalars) {
		return fmt.Errorf("stores declare different variables")
	}
	for _, name := range sortedKeys(a.Arrays) {
		x, y := a.Arrays[name].Data, b.Arrays[name]
		if y == nil || len(y.Data) != len(x) {
			return fmt.Errorf("array %s missing or resized", name)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y.Data[i]) {
				return fmt.Errorf("%s[%d] = %v, want %v", name, i, y.Data[i], x[i])
			}
		}
	}
	for name, v := range a.Scalars {
		if w, ok := b.Scalars[name]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("scalar %s = %v, want %v", name, w, v)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Freeze computes the modeled results of every catalog entry on both
// targets and of SWE512 on the CM/2, each checked against the
// interpreter first.
func Freeze(ctx context.Context) (map[string]Modeled, error) {
	svc := driver.New(1)
	out := map[string]Modeled{}
	add := func(e Entry, targets ...string) error {
		res, err := Reference(ctx, svc, e, targets...)
		if err != nil {
			return err
		}
		for t, r := range res {
			out[ResultKey(e.ID, t)] = ModeledOf(r)
		}
		return nil
	}
	for _, e := range Catalog() {
		if err := add(e, "cm2", "cm5"); err != nil {
			return nil, err
		}
	}
	if err := add(SWE512(), "cm2"); err != nil {
		return nil, err
	}
	return out, nil
}
