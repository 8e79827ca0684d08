// Package cm5 is the CM5/NIR back end of §5.3.1: the retarget of the
// specified compiler to the Connection Machine CM-5, whose processing
// node is a SPARC augmented with four vector datapaths.
//
// "The CM/5 NIR compiler retains the majority of its structure and,
// therefore, its specification from the CM/2 version... a single NIR
// program will be split three ways rather than two; one part will go to
// the control processor, as before; a second part will be executed on the
// SPARC node processor, and a third part will carry out floating point
// vector operations on the CM/5 vector datapaths."
//
// The package realizes exactly that: it consumes the same partitioned
// program (fe.Program) the CM/2 back end consumes — the machine-
// independent blocking and vectorizing NIR transformations are reused
// unchanged — and only the node-level model differs: each node's SPARC
// issues every computation block (charged NodeSetup cycles) and spreads
// its subgrid across the four vector units.
package cm5

import (
	"context"
	"fmt"

	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/partition"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// Machine is one CM-5 configuration.
type Machine struct {
	// Nodes is the number of processing nodes (a large CM-5 had 1,024).
	Nodes int
	// VUsPerNode is the number of vector datapaths per node (4).
	VUsPerNode int
	// ClockHz is the node clock (32 MHz).
	ClockHz float64
	// NodeSetup is the SPARC issue cost per computation block per node:
	// argument unpacking and vector-unit kickoff.
	NodeSetup float64
	// VUCost is the vector-datapath cycle model. The CM-5 VU issues one
	// 64-bit result per cycle with pipelined multiply-add.
	VUCost peac.CostModel
	// CommCost models the fat-tree data network.
	CommCost rt.CommCost
	// HostCost models the control processor.
	HostCost hostvm.Cost
}

// Default is a 1,024-node CM-5 with vector units.
func Default() *Machine {
	return &Machine{
		Nodes:      1024,
		VUsPerNode: 4,
		ClockHz:    32e6,
		NodeSetup:  80,
		VUCost: peac.CostModel{
			VectorOp:  4, // pipelined: 4 elements in 4 cycles
			Divide:    24,
			Sqrt:      30,
			Transcend: 48,
			Spill:     6,
			LoopJnz:   1,
		},
		CommCost: rt.CommCost{
			GridStartup:   80,
			GridLocal:     1,
			GridWire:      10, // fat tree: cheaper wires than the CM-2 grid
			RouterStartup: 200,
			RouterPerElem: 20,
			ReduceStartup: 100,
			ReducePerElem: 1,
			HopCost:       10,
		},
		HostCost: hostvm.DefaultCost,
	}
}

// Result extends the common execution result with the three-way split's
// node-level breakdown.
type Result struct {
	cm2.Result
	VUCycles      float64 // vector-datapath time
	SPARCCycles   float64 // node SPARC issue/setup time
	DegradeCycles float64 // dead-node remaps and buddy double-duty (fault plane)
}

// Run executes a partitioned program on the CM-5. The input is the same
// fe.Program the CM/2 consumes: the front end is target-independent.
func (m *Machine) Run(prog *fe.Program) (*Result, error) {
	return m.RunObs(prog, nil)
}

// RunObs executes a partitioned program, reporting telemetry to rec
// (which may be nil). The three-way split attributes node cycles to the
// PEAC instruction classes (vector-unit time) plus a "sparc-issue"
// class for the node SPARC's block setup.
func (m *Machine) RunObs(prog *fe.Program, rec obs.Recorder) (*Result, error) {
	return m.RunCtl(prog, rec, nil)
}

// RunCtl executes a partitioned program under an execution control
// plane (fault injection, checkpoints, resume — see cm2.Control). A
// nil ctl is exactly RunObs: same path, bit-identical cycle totals.
func (m *Machine) RunCtl(prog *fe.Program, rec obs.Recorder, ctl *cm2.Control) (*Result, error) {
	return m.RunCtx(context.Background(), prog, rec, ctl)
}

// RunCtx is RunCtl under a context: cancellation and deadline expiry
// are checked at every host op and loop-iteration boundary and return
// promptly with an error wrapping rt.ErrCanceled. The Machine is never
// mutated by a run, so one *Machine may serve concurrent RunCtx calls.
func (m *Machine) RunCtx(ctx context.Context, prog *fe.Program, rec obs.Recorder, ctl *cm2.Control) (*Result, error) {
	store := rt.NewStore(prog.Syms)
	comm := &rt.Comm{Store: store, PEs: m.Nodes * m.VUsPerNode, Cost: m.CommCost}
	res := &Result{}
	res.Store = store
	res.ClockHz = m.ClockHz
	res.PEClassCycles = map[string]float64{}
	res.PERoutineCycles = map[string]float64{}
	res.PELineCycles = map[rt.LineRef]float64{}

	// xo is the run's executor template; dispatch fills in each
	// routine's node subgrid.
	xo := cm2.ExecOpts{PEs: m.Nodes, Rec: rec}
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
			hctl.ExtraCycles = func() float64 {
				return res.VUCycles + res.SPARCCycles + res.DegradeCycles + comm.Cycles
			}
		}
		if ctl.Checkpoint != nil {
			hctl.Checkpoint = func(vm *hostvm.VM, next int, inLoop bool, iterDone int) error {
				return ctl.Checkpoint(m.snapshot(store, vm, comm, res, next, inLoop, iterDone))
			}
		}
		if ck := ctl.Resume; ck != nil {
			if err := m.resume(ck, store, comm, res, hctl); err != nil {
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
	res.PECycles = res.VUCycles + res.SPARCCycles + res.DegradeCycles
	res.HostClassCycles = vm.ClassCycles()
	res.CommClassCycles = map[string]float64{}
	for _, cl := range rt.CommClasses {
		res.CommClassCycles[cl] = comm.ClassCycles[cl]
	}
	res.CommLineCycles = rt.CopyLineMap(comm.LineCycles)
	// The SPARC issue time is its own attribution class so the
	// breakdown sums exactly to PECycles; degradation likewise.
	res.PEClassCycles["sparc-issue"] = res.SPARCCycles
	if res.DegradeCycles != 0 {
		res.PEClassCycles[cm2.DegradeClass] = res.DegradeCycles
	}
	res.Faults = inj.Stats()
	res.emitObs(rec)
	return res, nil
}

// snapshot captures a consistent boundary state via the shared rt
// boundary plumbing; the CM-5's three-way split travels in the Extra
// map.
func (m *Machine) snapshot(store *rt.Store, vm *hostvm.VM, comm *rt.Comm, res *Result, next int, inLoop bool, iterDone int) *rt.Checkpoint {
	ck := rt.SnapshotBoundary(store, comm,
		rt.Boundary{Machine: "cm5", NextOp: next, InLoop: inLoop, IterDone: iterDone},
		rt.HostState{Output: vm.Output, Cycles: vm.Cycles, ClassCycles: vm.ClassCycles()},
		rt.ExecTotals{
			Flops:           res.Flops,
			NodeCalls:       res.NodeCalls,
			PECycles:        res.VUCycles + res.SPARCCycles + res.DegradeCycles,
			PEClassCycles:   res.PEClassCycles,
			PERoutineCycles: res.PERoutineCycles,
			PELineCycles:    res.PELineCycles,
		})
	ck.Extra = map[string]float64{
		"vu-cycles":      res.VUCycles,
		"sparc-cycles":   res.SPARCCycles,
		"degrade-cycles": res.DegradeCycles,
	}
	return ck
}

// resume restores a snapshot into the store and accumulators. A
// snapshot taken on another machine model is rejected: it carries no
// three-way node split, and its cycle totals belong to a different
// cost model.
func (m *Machine) resume(ck *rt.Checkpoint, store *rt.Store, comm *rt.Comm, res *Result, hctl *hostvm.Ctl) error {
	if ck.Machine != "cm5" {
		return fmt.Errorf("cm5: resume: checkpoint taken on machine %q: %w", ck.Machine, rt.ErrCkptCorrupt)
	}
	tot, err := rt.ResumeBoundary(ck, store, comm)
	if err != nil {
		return fmt.Errorf("cm5: resume: %w", err)
	}
	res.Flops = tot.Flops
	res.NodeCalls = tot.NodeCalls
	res.VUCycles = ck.Extra["vu-cycles"]
	res.SPARCCycles = ck.Extra["sparc-cycles"]
	res.DegradeCycles = ck.Extra["degrade-cycles"]
	res.PEClassCycles = tot.PEClassCycles
	res.PERoutineCycles = tot.PERoutineCycles
	res.PELineCycles = tot.PELineCycles
	hctl.SetResume(ck)
	return nil
}

func (res *Result) emitObs(rec obs.Recorder) {
	if rec == nil {
		return
	}
	obs.Add(rec, "exec/host-cycles", res.HostCycles)
	obs.Add(rec, "exec/pe-cycles", res.PECycles)
	obs.Add(rec, "exec/comm-cycles", res.CommCycles)
	obs.Add(rec, "exec/flops", float64(res.Flops))
	obs.Add(rec, "exec/node-calls", float64(res.NodeCalls))
	obs.Add(rec, "exec/sparc-cycles", res.SPARCCycles)
	obs.Add(rec, "exec/vu-cycles", res.VUCycles)
	for cl, v := range res.PEClassCycles {
		obs.Add(rec, "exec/pe/"+cl, v)
	}
	for cl, v := range res.CommClassCycles {
		obs.Add(rec, "exec/comm/"+cl, v)
	}
	for cl, v := range res.HostClassCycles {
		obs.Add(rec, "exec/host/"+cl, v)
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

// dispatch is the three-way split's node half: the control processor has
// already broadcast the block (host side); here each node's SPARC unpacks
// arguments and drives its four vector units over a quarter of the node
// subgrid each. xo is the run's executor template (numeric plane,
// worker pool, recorder); dispatch sets only the node subgrid.
func (m *Machine) dispatch(ctx context.Context, r *peac.Routine, over shape.Shape, store *rt.Store, res *Result, inj *faults.Injector, xo cm2.ExecOpts) error {
	if over == nil {
		return fmt.Errorf("cm5: node routine %s without a shape: %w", r.Name, cm2.ErrDispatch)
	}
	layout := shape.Distribute(over, m.Nodes, r.Dist)
	nodeSub := partition.NodeSubgridSize(layout)
	perVU := (nodeSub + m.VUsPerNode - 1) / m.VUsPerNode

	sparc := m.NodeSetup + float64(len(r.Params))*2
	vu := float64(m.VUCost.RoutineCycles(r, perVU))

	degradeRef := rt.LineRef{Routine: r.Name, File: r.Pos.File, Line: r.Pos.Line, Class: cm2.DegradeClass}
	if inj != nil {
		// Dead processing nodes: remap the node subgrid to a buddy
		// through the data network, then every dispatch pays one extra
		// node's worth of work while nodes are down (the control
		// processor gates on the slowest node).
		for _, node := range inj.DispatchTick(m.Nodes) {
			if !inj.Degrade() {
				return fmt.Errorf("cm5: dispatch of %s: %w: processing node %d: %w",
					r.Name, cm2.ErrDispatch, node, faults.ErrPEDead)
			}
			remap := m.CommCost.RouterStartup + float64(nodeSub)*m.CommCost.RouterPerElem
			res.DegradeCycles += remap
			res.PELineCycles[degradeRef] += remap
			inj.NoteDegraded(node)
		}
		if inj.DeadCount() > 0 {
			res.DegradeCycles += sparc + vu
			res.PELineCycles[degradeRef] += sparc + vu
		}
	}

	res.SPARCCycles += sparc
	res.VUCycles += vu
	res.PERoutineCycles[r.Name] += sparc + vu
	res.PELineCycles[rt.LineRef{Routine: r.Name, File: r.Pos.File, Line: r.Pos.Line, Class: "sparc-issue"}] += sparc
	itersPerVU := (perVU + peac.VectorWidth - 1) / peac.VectorWidth
	if itersPerVU > 0 {
		byClass := m.VUCost.BodyCyclesByClass(r.Body)
		for cl, n := range byClass {
			if n != 0 {
				res.PEClassCycles[peac.CycleClass(cl).String()] += float64(n * itersPerVU)
			}
		}
		for cell, n := range m.VUCost.BodyCyclesByLine(r.Body, r.Pos) {
			if n != 0 {
				res.PELineCycles[rt.LineRef{Routine: r.Name, File: cell.Pos.File, Line: cell.Pos.Line, Class: cell.Class.String()}] += float64(n * itersPerVU)
			}
		}
	}
	res.Flops += int64(r.FlopsPerIteration()) * int64(itersPerVU) * int64(layout.PEsUsed()*m.VUsPerNode)
	res.NodeCalls++
	res.PECycles = res.VUCycles + res.SPARCCycles + res.DegradeCycles
	xo.Subgrid = nodeSub
	return cm2.ExecRoutineOpts(ctx, r, over, store, xo)
}
