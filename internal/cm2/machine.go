// Package cm2 models the Connection Machine CM/2 in the slicewise
// programming model (§2.2): up to 2,048 processing elements, each a
// Weitek WTL3164 64-bit FPU programmed as a four-wide vector processor,
// driven synchronously by a sequencer fed from a SPARC front end.
//
// The machine executes partitioned programs: the host program runs on the
// host VM, computation blocks execute as PEAC routines over blockwise
// subgrids with a calibrated per-instruction cycle model, and
// communication goes through the CM runtime cost model. Execution is
// functionally exact (results match the reference interpreter) while
// cycles are accounted analytically per PE.
package cm2

import (
	"context"
	"fmt"

	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// DegradeClass is the PE cycle class charged for graceful degradation:
// remapping a dead PE's subgrid onto its buddy and the extra subgrid
// pass every subsequent dispatch pays while PEs are dead (the
// synchronous machine gates on its slowest PE).
const DegradeClass = "degrade"

// Control is the optional execution control plane for a run: fault
// injection, periodic checkpointing, and resume from a snapshot. A nil
// *Control runs the plain path with zero overhead.
type Control struct {
	// Faults drives injection across the host VM, the communication
	// layer, and node dispatch (nil disables injection).
	Faults *faults.Injector
	// CheckpointEvery writes a snapshot after every N top-level host
	// boundaries (ops and top-level serial-DO iterations); zero
	// disables checkpointing.
	CheckpointEvery int
	// Checkpoint receives each snapshot (typically to write to disk).
	Checkpoint func(ck *rt.Checkpoint) error
	// Resume restores a snapshot before execution: the store, the
	// accumulated cycle attribution, and the host resume position.
	Resume *rt.Checkpoint
	// MaxCycles is the watchdog budget: when the modeled cycle total
	// (host + PE + communication) exceeds it, the run is killed
	// deterministically at the next host tick with an error wrapping
	// rt.ErrBudget. Zero disables the watchdog. Resuming a killed run
	// from its last checkpoint with a higher budget continues exactly
	// where the accumulators left off.
	MaxCycles float64
	// Numeric attaches the numeric-exception plane: PE float ops are
	// scanned for NaN/Inf production, which either traps (rt.ErrNumeric
	// with PE and instruction attribution) or is tallied per cycle
	// class. Nil disables the plane.
	Numeric *rt.Numeric
	// ExecWorkers shards every PEAC routine dispatch across a chunk
	// worker pool: 0 and 1 execute serially, n > 1 uses n workers, and
	// a negative value selects GOMAXPROCS. Results — store contents,
	// output, cycle totals, numeric tallies — are bit-exact and
	// invariant under the worker count; only simulator wall-clock
	// changes. The analytic cycle model is computed before dispatch and
	// is untouched by the fan-out.
	ExecWorkers int
}

// Machine is one CM/2 configuration.
type Machine struct {
	// PEs is the number of slicewise processing elements (2,048 on a full
	// 64K-processor CM/2). Must be a power of two.
	PEs int
	// ClockHz is the sequencer/Weitek clock (7 MHz).
	ClockHz float64
	// PECost is the PEAC instruction cycle model.
	PECost peac.CostModel
	// CommCost is the runtime communication model.
	CommCost rt.CommCost
	// HostCost is the front-end model.
	HostCost hostvm.Cost
}

// Default returns the full-size calibrated CM/2.
func Default() *Machine {
	return &Machine{
		PEs:      2048,
		ClockHz:  7e6,
		PECost:   peac.DefaultCost,
		CommCost: rt.DefaultCommCost,
		HostCost: hostvm.DefaultCost,
	}
}

// Result is the outcome of one program execution.
type Result struct {
	Output  []string
	Store   *rt.Store
	Stopped bool

	HostCycles float64
	PECycles   float64
	CommCycles float64
	Flops      int64
	NodeCalls  int
	CommCalls  int
	ClockHz    float64

	// Cycle attribution (§5.2/§6): each map's values sum exactly to the
	// corresponding total above.
	//
	// PEClassCycles attributes PECycles per PEAC instruction class
	// (peac.CycleClass names: vector-arith, divide, sqrt, transcend,
	// load-store, spill, loop).
	PEClassCycles map[string]float64
	// PERoutineCycles attributes PECycles per PEAC routine.
	PERoutineCycles map[string]float64
	// PELineCycles attributes PECycles per (routine, source line, class)
	// cell, keyed by the provenance threaded from the Fortran front end
	// through PEAC. Its values sum exactly to PECycles, and the per-class
	// marginals equal PEClassCycles. The attribution is computed from the
	// analytic model before dispatch, so it is bit-identical for every
	// ExecWorkers setting.
	PELineCycles map[rt.LineRef]float64
	// CommClassCycles attributes CommCycles per runtime network
	// (rt.CommGrid, rt.CommRouter, rt.CommReduce).
	CommClassCycles map[string]float64
	// CommLineCycles attributes CommCycles per (source line, network
	// class) cell under the rt.CommRoutine pseudo-routine; its values
	// sum exactly to CommCycles. Merge with PELineCycles (see
	// rt.MergeLineMaps) for a whole-machine per-line profile.
	CommLineCycles map[rt.LineRef]float64
	// HostClassCycles attributes HostCycles per front-end activity
	// (hostvm.HostIssue, HostScalar, HostElem, HostDispatch, and
	// HostStall when stalls were injected).
	HostClassCycles map[string]float64

	// Faults reports what the fault plane injected and how the runtime
	// recovered; nil when the run had no injector attached.
	Faults *faults.Stats

	// Numeric is the numeric-exception plane's per-class NaN/Inf tally;
	// nil when no plane was attached (see Control.Numeric).
	Numeric *rt.Numeric
}

// TotalCycles is the modeled end-to-end cycle count; host, node, and
// communication time are serialized, as in the synchronous SIMD model.
func (r *Result) TotalCycles() float64 {
	return r.HostCycles + r.PECycles + r.CommCycles
}

// Seconds is the modeled wall time.
func (r *Result) Seconds() float64 { return r.TotalCycles() / r.ClockHz }

// GFLOPS is the modeled sustained rate.
func (r *Result) GFLOPS() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Flops) / s / 1e9
}

// Run executes a partitioned program on the machine.
func (m *Machine) Run(prog *fe.Program) (*Result, error) {
	return m.RunObs(prog, nil, nil)
}

// RunOn executes against a caller-prepared store (pre-initialized data).
func (m *Machine) RunOn(prog *fe.Program, store *rt.Store) (*Result, error) {
	return m.RunObs(prog, store, nil)
}

// RunObs executes a partitioned program, reporting telemetry to rec (a
// nil recorder costs one branch per dispatch). A nil store means a
// fresh store initialized from the program's symbols.
func (m *Machine) RunObs(prog *fe.Program, store *rt.Store, rec obs.Recorder) (*Result, error) {
	return m.RunCtl(prog, store, rec, nil)
}

// RunCtl executes a partitioned program under an execution control
// plane: fault injection, periodic checkpoints, and resume from a
// snapshot. A nil ctl is exactly RunObs — same code path, bit-identical
// cycle totals. A run halted by an injected fatal fault returns an
// error wrapping faults.ErrFatal; restart it from the last checkpoint
// via ctl.Resume.
func (m *Machine) RunCtl(prog *fe.Program, store *rt.Store, rec obs.Recorder, ctl *Control) (*Result, error) {
	return m.RunCtx(context.Background(), prog, store, rec, ctl)
}

// RunCtx is RunCtl under a context: cancellation and deadline expiry
// are checked at every host op and loop-iteration boundary and return
// promptly with an error wrapping rt.ErrCanceled. The Machine is never
// mutated by a run, so one *Machine may serve any number of concurrent
// RunCtx calls (each run builds its own store when store is nil).
func (m *Machine) RunCtx(ctx context.Context, prog *fe.Program, store *rt.Store, rec obs.Recorder, ctl *Control) (*Result, error) {
	if store == nil {
		store = rt.NewStore(prog.Syms)
	}
	comm := &rt.Comm{Store: store, PEs: m.PEs, Cost: m.CommCost}
	res := &Result{
		Store:           store,
		ClockHz:         m.ClockHz,
		PEClassCycles:   map[string]float64{},
		PERoutineCycles: map[string]float64{},
		PELineCycles:    map[rt.LineRef]float64{},
	}

	// xo is the run's executor template; dispatch fills in each
	// routine's subgrid.
	xo := ExecOpts{PEs: m.PEs, Rec: rec}
	var inj *faults.Injector
	var hctl *hostvm.Ctl
	if ctl != nil {
		inj = ctl.Faults
		xo.Num = ctl.Numeric
		xo.Workers = ctl.ExecWorkers
		res.Numeric = ctl.Numeric
		comm.Faults = inj
		hctl = &hostvm.Ctl{Faults: inj, CheckpointEvery: ctl.CheckpointEvery, MaxCycles: ctl.MaxCycles}
		if ctl.MaxCycles > 0 {
			hctl.ExtraCycles = func() float64 { return res.PECycles + comm.Cycles }
		}
		if ctl.Checkpoint != nil {
			hctl.Checkpoint = func(vm *hostvm.VM, next int, inLoop bool, iterDone int) error {
				return ctl.Checkpoint(snapshot(store, vm, comm, res, next, inLoop, iterDone))
			}
		}
		if ck := ctl.Resume; ck != nil {
			if err := resume(ck, store, comm, res, hctl); err != nil {
				return nil, err
			}
		}
	}

	hooks := hostvm.Hooks{
		Dispatch: func(r *peac.Routine, over shape.Shape) error {
			return m.dispatch(ctx, r, over, store, res, inj, xo)
		},
		Comm: func(mv nir.Move) error { return comm.ExecMove(mv) },
	}
	vm, err := hostvm.RunCtx(ctx, prog, store, m.HostCost, hooks, hctl)
	if err != nil {
		return nil, err
	}
	res.Output = vm.Output
	res.Stopped = vm.Stopped()
	res.HostCycles = vm.Cycles
	res.CommCycles = comm.Cycles
	res.CommCalls = comm.Calls
	res.HostClassCycles = vm.ClassCycles()
	res.CommClassCycles = map[string]float64{}
	for _, cl := range rt.CommClasses {
		res.CommClassCycles[cl] = comm.ClassCycles[cl]
	}
	res.CommLineCycles = rt.CopyLineMap(comm.LineCycles)
	res.Faults = inj.Stats()
	res.emit(rec)
	return res, nil
}

// snapshot captures a consistent machine state at a host boundary via
// the shared rt boundary plumbing; the CM/2 has no machine-specific
// extras beyond the common fields.
func snapshot(store *rt.Store, vm *hostvm.VM, comm *rt.Comm, res *Result, next int, inLoop bool, iterDone int) *rt.Checkpoint {
	return rt.SnapshotBoundary(store, comm,
		rt.Boundary{Machine: "cm2", NextOp: next, InLoop: inLoop, IterDone: iterDone},
		rt.HostState{Output: vm.Output, Cycles: vm.Cycles, ClassCycles: vm.ClassCycles()},
		rt.ExecTotals{
			Flops:           res.Flops,
			NodeCalls:       res.NodeCalls,
			PECycles:        res.PECycles,
			PEClassCycles:   res.PEClassCycles,
			PERoutineCycles: res.PERoutineCycles,
			PELineCycles:    res.PELineCycles,
		})
}

// resume restores a snapshot into the store, the comm layer, the
// result accumulators, and the host control plane, so the continued
// run picks up every total where the snapshot left it. A snapshot
// taken on another machine model is rejected: its cycle totals belong
// to a different cost model.
func resume(ck *rt.Checkpoint, store *rt.Store, comm *rt.Comm, res *Result, hctl *hostvm.Ctl) error {
	if ck.Machine != "cm2" {
		return fmt.Errorf("cm2: resume: checkpoint taken on machine %q: %w", ck.Machine, rt.ErrCkptCorrupt)
	}
	tot, err := rt.ResumeBoundary(ck, store, comm)
	if err != nil {
		return fmt.Errorf("cm2: resume: %w", err)
	}
	res.PECycles = tot.PECycles
	res.Flops = tot.Flops
	res.NodeCalls = tot.NodeCalls
	res.PEClassCycles = tot.PEClassCycles
	res.PERoutineCycles = tot.PERoutineCycles
	res.PELineCycles = tot.PELineCycles
	hctl.SetResume(ck)
	return nil
}

// emit reports the execution result as counters.
func (res *Result) emit(rec obs.Recorder) {
	if rec == nil {
		return
	}
	obs.Add(rec, "exec/host-cycles", res.HostCycles)
	obs.Add(rec, "exec/pe-cycles", res.PECycles)
	obs.Add(rec, "exec/comm-cycles", res.CommCycles)
	obs.Add(rec, "exec/flops", float64(res.Flops))
	obs.Add(rec, "exec/node-calls", float64(res.NodeCalls))
	obs.Add(rec, "exec/comm-calls", float64(res.CommCalls))
	for cl, v := range res.PEClassCycles {
		obs.Add(rec, "exec/pe/"+cl, v)
	}
	for cl, v := range res.CommClassCycles {
		obs.Add(rec, "exec/comm/"+cl, v)
	}
	for cl, v := range res.HostClassCycles {
		obs.Add(rec, "exec/host/"+cl, v)
	}
	for name, v := range res.PERoutineCycles {
		obs.Add(rec, "exec/routine/"+name, v)
	}
	if res.Numeric != nil {
		for cl, n := range res.Numeric.NaN {
			obs.Add(rec, "exec/numeric/nan/"+cl, float64(n))
		}
		for cl, n := range res.Numeric.Inf {
			obs.Add(rec, "exec/numeric/inf/"+cl, float64(n))
		}
	}
}

// dispatch runs one PEAC routine over its shape, charging the cycle model
// and executing it functionally over the stored arrays under the run's
// executor template xo, which carries the numeric plane, the chunk
// worker pool size (Control.ExecWorkers), and the recorder; dispatch
// sets only the routine's subgrid.
func (m *Machine) dispatch(ctx context.Context, r *peac.Routine, over shape.Shape, store *rt.Store, res *Result, inj *faults.Injector, xo ExecOpts) error {
	if over == nil {
		return fmt.Errorf("cm2: node routine %s without a shape: %w", r.Name, ErrDispatch)
	}
	layout := shape.Distribute(over, m.PEs, r.Dist)
	sub := layout.SubgridSize()
	if inj != nil {
		if err := m.injectDispatch(r, sub, res, inj); err != nil {
			return err
		}
	}
	cyc := float64(m.PECost.RoutineCycles(r, sub))
	res.PECycles += cyc
	res.PERoutineCycles[r.Name] += cyc
	itersPerPE := (sub + peac.VectorWidth - 1) / peac.VectorWidth
	if itersPerPE > 0 {
		byClass := m.PECost.BodyCyclesByClass(r.Body)
		for cl, n := range byClass {
			if n != 0 {
				res.PEClassCycles[peac.CycleClass(cl).String()] += float64(n * itersPerPE)
			}
		}
		for cell, n := range m.PECost.BodyCyclesByLine(r.Body, r.Pos) {
			if n != 0 {
				res.PELineCycles[lineRef(r, cell.Pos, cell.Class.String())] += float64(n * itersPerPE)
			}
		}
	}
	res.Flops += int64(r.FlopsPerIteration()) * int64(itersPerPE) * int64(layout.PEsUsed())
	res.NodeCalls++
	obs.Observe(xo.Rec, "cm2/dispatch-cycles", cyc)
	xo.Subgrid = sub
	return ExecRoutineOpts(ctx, r, over, store, xo)
}

// injectDispatch applies the fault plane to one node dispatch. A PE
// killed here either aborts the run (degradation disabled: a clean
// error wrapping ErrDispatch and faults.ErrPEDead) or degrades
// gracefully: the dead PE's subgrid is remapped onto a buddy — charged
// one router transfer of the subgrid — and every later dispatch pays
// one extra subgrid pass, because the synchronous machine gates on its
// slowest PE and the buddy now runs two subgrids back to back.
// Execution stays functionally exact: the model charges cycles, the
// data motion is unaffected.
func (m *Machine) injectDispatch(r *peac.Routine, sub int, res *Result, inj *faults.Injector) error {
	for _, pe := range inj.DispatchTick(m.PEs) {
		if !inj.Degrade() {
			return fmt.Errorf("cm2: dispatch of %s: %w: processing element %d: %w",
				r.Name, ErrDispatch, pe, faults.ErrPEDead)
		}
		remap := m.CommCost.RouterStartup + float64(sub)*m.CommCost.RouterPerElem
		res.PECycles += remap
		res.PEClassCycles[DegradeClass] += remap
		res.PELineCycles[lineRef(r, r.Pos, DegradeClass)] += remap
		inj.NoteDegraded(pe)
	}
	if inj.DeadCount() > 0 {
		extra := float64(m.PECost.RoutineCycles(r, sub))
		res.PECycles += extra
		res.PEClassCycles[DegradeClass] += extra
		res.PELineCycles[lineRef(r, r.Pos, DegradeClass)] += extra
	}
	return nil
}

// lineRef builds the attribution key for cycles modeled in routine r at
// source position pos under a cycle class name.
func lineRef(r *peac.Routine, pos source.Pos, class string) rt.LineRef {
	return rt.LineRef{Routine: r.Name, File: pos.File, Line: pos.Line, Class: class}
}
