package cm2_test

// The whole-program engine differential: every internal/workload kernel
// runs once through the production machine harness (Machine.RunCtx,
// whose node routines execute on the compiled engine) and once through
// a harness whose node routines execute on the reference interpreter.
// The reference harness is assembled from the public pieces only — a
// fresh rt.NewStore, an rt.Comm, and hostvm.RunCtx whose Dispatch hook
// calls the reference and whose Comm hook calls (*rt.Comm).ExecMove —
// so production code carries no seam for it. Stores (bit for bit),
// PRINT output, numeric tallies, and the host and communication cycle
// totals must agree exactly. PE cycles need no comparison: the cost
// model prices a routine before dispatch, so no engine can move them.
// (External test package: the root f90y package imports cm2.)

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/nir"
	"f90y/internal/partition"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
	"f90y/internal/workload"
)

// diffKernel is one program of the differential.
type diffKernel struct{ name, src string }

// diffKernels is every internal/workload generator, with the layout
// trio under its BLOCK, CYCLIC, and aligned !HPF$ layouts. Sizes are
// small, but most kernels span several 4096-element executor chunks.
func diffKernels() []diffKernel {
	ks := []diffKernel{
		{"swe", workload.SWE(70, 2)},
		{"fig9", workload.Fig9(48)},
		{"fig10", workload.Fig10(96)},
		{"fig11", workload.Fig11(96, 8)},
		{"fig12", workload.Fig12(96)},
		{"stencil", workload.Stencil(96, 2)},
		{"spill", workload.SpillKernel(4200, 14)},
	}
	layouts := []struct {
		name string
		gen  func(d []string) string
		ds   [][]string
	}{
		{"ltrans", func(d []string) string { return workload.LayoutTranspose(48, 2, d) }, [][]string{
			nil,
			{"!HPF$ DISTRIBUTE a(CYCLIC, CYCLIC)", "!HPF$ ALIGN b WITH a", "!HPF$ ALIGN c WITH a"},
			{"!HPF$ DISTRIBUTE a(BLOCK, *)", "!HPF$ DISTRIBUTE b(*, BLOCK)", "!HPF$ ALIGN c WITH b"},
		}},
		{"lfft", func(d []string) string { return workload.LayoutFFT(4096, 6, d) }, [][]string{
			nil,
			{"!HPF$ DISTRIBUTE x(CYCLIC)", "!HPF$ ALIGN y WITH x"},
			{"!HPF$ PROCESSORS procs(16)", "!HPF$ DISTRIBUTE x(CYCLIC(2)) ONTO procs", "!HPF$ ALIGN y WITH x"},
		}},
		{"lgather", func(d []string) string { return workload.LayoutGather(4096, 2, d) }, [][]string{
			nil,
			{"!HPF$ DISTRIBUTE a(CYCLIC)", "!HPF$ ALIGN b WITH a"},
			{"!HPF$ DISTRIBUTE a(CYCLIC(4))", "!HPF$ ALIGN b WITH a", "!HPF$ ALIGN idx WITH a"},
		}},
	}
	for _, l := range layouts {
		for i, d := range l.ds {
			ks = append(ks, diffKernel{fmt.Sprintf("%s-%d", l.name, i), l.gen(d)})
		}
	}
	return ks
}

// diffRun is what one side of the differential computed.
type diffRun struct {
	store      *rt.Store
	output     []string
	hostCycles float64
	commCycles float64
}

// diffTarget is one machine shape: run executes a program through the
// production harness, ref through the reference-interpreter harness.
type diffTarget struct {
	name string
	run  func(ctx context.Context, prog *fe.Program, ctl *cm2.Control) (*diffRun, error)
	ref  func(ctx context.Context, prog *fe.Program, num *rt.Numeric) (*diffRun, error)
}

func diffTargets() []diffTarget {
	m2, m5 := cm2.Default(), cm5.Default()
	return []diffTarget{
		{
			name: "cm2",
			run: func(ctx context.Context, prog *fe.Program, ctl *cm2.Control) (*diffRun, error) {
				res, err := m2.RunCtx(ctx, prog, nil, nil, ctl)
				if err != nil {
					return nil, err
				}
				return &diffRun{res.Store, res.Output, res.HostCycles, res.CommCycles}, nil
			},
			ref: func(ctx context.Context, prog *fe.Program, num *rt.Numeric) (*diffRun, error) {
				return runReference(ctx, "cm2", prog, m2.HostCost, m2.CommCost, m2.PEs, m2.PEs, num,
					func(r *peac.Routine, over shape.Shape) int {
						return shape.Distribute(over, m2.PEs, r.Dist).SubgridSize()
					})
			},
		},
		{
			name: "cm5",
			run: func(ctx context.Context, prog *fe.Program, ctl *cm2.Control) (*diffRun, error) {
				res, err := m5.RunCtx(ctx, prog, nil, ctl)
				if err != nil {
					return nil, err
				}
				return &diffRun{res.Store, res.Output, res.HostCycles, res.CommCycles}, nil
			},
			ref: func(ctx context.Context, prog *fe.Program, num *rt.Numeric) (*diffRun, error) {
				return runReference(ctx, "cm5", prog, m5.HostCost, m5.CommCost, m5.Nodes*m5.VUsPerNode, m5.Nodes, num,
					func(r *peac.Routine, over shape.Shape) int {
						return partition.NodeSubgridSize(shape.Distribute(over, m5.Nodes, r.Dist))
					})
			},
		},
	}
}

// runReference executes prog the way a machine harness does, with every
// node routine dispatched to the reference interpreter. machine
// prefixes the harness's own errors as that machine's dispatch does;
// commPEs sizes the communication network; pes and subgrid give the
// numeric plane its processing-element attribution, as the machine's
// dispatch would.
func runReference(ctx context.Context, machine string, prog *fe.Program, host hostvm.Cost, commCost rt.CommCost, commPEs, pes int,
	num *rt.Numeric, subgrid func(*peac.Routine, shape.Shape) int) (*diffRun, error) {
	store := rt.NewStore(prog.Syms)
	comm := &rt.Comm{Store: store, PEs: commPEs, Cost: commCost}
	hooks := hostvm.Hooks{
		Dispatch: func(r *peac.Routine, over shape.Shape) error {
			if over == nil {
				return fmt.Errorf("%s: node routine %s without a shape: %w", machine, r.Name, cm2.ErrDispatch)
			}
			return cm2.RefExecRoutine(r, over, store, cm2.ExecOpts{Num: num, Subgrid: subgrid(r, over), PEs: pes})
		},
		Comm: func(mv nir.Move) error { return comm.ExecMove(mv) },
	}
	vm, err := hostvm.RunCtx(ctx, prog, store, host, hooks, nil)
	if err != nil {
		return nil, err
	}
	return &diffRun{store, vm.Output, vm.Cycles, comm.Cycles}, nil
}

// sameRun fails t unless got matches want exactly.
func sameRun(t *testing.T, label string, want, got *diffRun) {
	t.Helper()
	if !reflect.DeepEqual(got.output, want.output) {
		t.Fatalf("%s: PRINT output differs:\n engine:    %q\n reference: %q", label, got.output, want.output)
	}
	if got.hostCycles != want.hostCycles || got.commCycles != want.commCycles {
		t.Fatalf("%s: modeled cycles differ: engine host=%v comm=%v, reference host=%v comm=%v",
			label, got.hostCycles, got.commCycles, want.hostCycles, want.commCycles)
	}
	if len(got.store.Arrays) != len(want.store.Arrays) {
		t.Fatalf("%s: %d arrays, reference has %d", label, len(got.store.Arrays), len(want.store.Arrays))
	}
	for name, wa := range want.store.Arrays {
		ga := got.store.Arrays[name]
		if ga == nil {
			t.Fatalf("%s: engine run lost array %q", label, name)
		}
		for i, w := range wa.Data {
			if math.Float64bits(ga.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %v, reference %v (not bit-exact)", label, name, i, ga.Data[i], w)
			}
		}
	}
	for name, w := range want.store.Scalars {
		if g := got.store.Scalars[name]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: scalar %s = %v, reference %v", label, name, g, w)
		}
	}
}

// sameTallies fails t unless the two numeric planes agree class by class.
func sameTallies(t *testing.T, label string, want, got *rt.Numeric) {
	t.Helper()
	if !reflect.DeepEqual(got.NaN, want.NaN) || !reflect.DeepEqual(got.Inf, want.Inf) {
		t.Fatalf("%s: numeric tallies differ: engine NaN=%v Inf=%v, reference NaN=%v Inf=%v",
			label, got.NaN, got.Inf, want.NaN, want.Inf)
	}
}

// TestEngineDifferential runs every workload kernel on the CM/2 and
// CM-5 shapes at executor worker counts 0, 2 and GOMAXPROCS, with the
// numeric plane off (the engine's opt chains are eligible) and in
// record mode (the plane forces its reference chain wherever a fused or
// sunk kernel would skip a scan), against the reference harness.
func TestEngineDifferential(t *testing.T) {
	ctx := context.Background()
	for _, k := range diffKernels() {
		comp, err := f90y.Compile(k.name+".f90", k.src, f90y.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", k.name, err)
		}
		for _, tg := range diffTargets() {
			for _, record := range []bool{false, true} {
				var refNum *rt.Numeric
				if record {
					refNum = rt.NewNumeric(rt.NumericRecord)
				}
				want, err := tg.ref(ctx, comp.Program, refNum)
				if err != nil {
					t.Fatalf("%s/%s: reference run: %v", k.name, tg.name, err)
				}
				for _, workers := range []int{0, 2, -1} {
					label := fmt.Sprintf("%s/%s record=%v workers=%d", k.name, tg.name, record, workers)
					var ctl *cm2.Control
					var num *rt.Numeric
					if record || workers != 0 {
						if record {
							num = rt.NewNumeric(rt.NumericRecord)
						}
						ctl = &cm2.Control{ExecWorkers: workers, Numeric: num}
					}
					got, err := tg.run(ctx, comp.Program, ctl)
					if err != nil {
						t.Fatalf("%s: engine run: %v", label, err)
					}
					sameRun(t, label, want, got)
					if record {
						sameTallies(t, label, refNum, num)
					}
				}
			}
		}
	}
}

// fuzzMaxElems and fuzzMaxCycles bound each FuzzEngines input, as
// FuzzOracle's guards do: the reference interpreter resolves operands
// per element, so cost grows with the declared elements and the run.
const (
	fuzzMaxElems  = 1 << 10
	fuzzMaxCycles = 2_000_000
)

// FuzzEngines feeds fuzzer-generated programs through both harnesses on
// both machine shapes: any program the compiler accepts and the engine
// runs within the cycle budget must produce a bit-identical store and
// output under the reference interpreter, and a failing run must fail
// with the same error. Seeded with FuzzOracle's corpus.
func FuzzEngines(f *testing.F) {
	f.Add(workload.SWE(8, 1))
	f.Add(workload.Fig9(8))
	f.Add(workload.Fig10(8))
	f.Add(workload.Stencil(8, 2))
	f.Add("program p\ninteger :: i\ni = 1\nprint *, i\nend program p\n")
	f.Add("program q\nreal :: a(4), b(4)\na = 2.0\nb = sqrt(a) + cshift(a, 1)\nprint *, sum(b)\nend program q\n")
	f.Fuzz(func(t *testing.T, src string) {
		comp, err := f90y.Compile("fuzz.f90", src, f90y.DefaultConfig())
		if err != nil {
			var pe *f90y.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("compiler panicked in phase %s: %v\n%s", pe.Phase, pe.Value, pe.Stack)
			}
			return
		}
		total := 0
		for _, sym := range comp.Program.Syms.All() {
			if sym.Shape != nil && !sym.Param {
				total += shape.Size(sym.Shape)
			}
		}
		if total > fuzzMaxElems {
			return
		}
		ctx := context.Background()
		for _, tg := range diffTargets() {
			got, err := tg.run(ctx, comp.Program, &cm2.Control{MaxCycles: fuzzMaxCycles})
			if errors.Is(err, rt.ErrBudget) {
				return
			}
			want, refErr := tg.ref(ctx, comp.Program, nil)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s: engine error %v, reference error %v", tg.name, err, refErr)
			}
			if err == nil {
				sameRun(t, tg.name, want, got)
			}
		}
	})
}
