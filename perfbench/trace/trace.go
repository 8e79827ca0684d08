// Package trace is the benchmark's traced harness. It splits the host
// wall-clock of a job across the program's layers by timing calls into
// each module's public functions from outside the program: the compile
// phases (lexer, parser, lower, opt, partition with its pe/peac code
// generation), then a CM/2 run composed from rt.NewStore and
// hostvm.RunCtx, whose hooks time cm2.ExecRoutineOpts and
// (*rt.Comm).ExecMove, and optional checkpoint spills at the server's
// cadence. Nothing is traced inside the program.
//
// The composition mirrors what the CM/2 machine does for a run with no
// control plane. RunCM2 reports the modeled statistics it computed, so a
// caller can check that the traced run reproduced the untraced one
// exactly; a harness that drifts from the machine shows up as a
// mismatch, not as a wrong profile.
package trace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/lexer"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// SpillEvery is f90yd's default checkpoint cadence under -state-dir: a
// spill every eight top-level host boundaries.
const SpillEvery = 8

// Layers accumulates wall time (as durations) and work counts per layer
// over any number of traced compiles and runs.
type Layers struct {
	// Compile layers, summed over Compiles calls.
	Compiles                          int
	Lex, Parse, Lower, Opt, Partition time.Duration
	Tokens, FusedMoves, HoistedComms  int
	NodeRoutines, PEACInstrs          int
	// CM/2 execution layers, summed over CM2Runs runs.
	CM2Runs                   int
	Store, HostSelf, Dispatch time.Duration
	StoreBytes                int64
	Dispatches                int
	DispatchElems             int64
	PECycles                  float64
	Comm                      map[string]time.Duration // per rt.CommClasses class
	CommCalls                 int
	// CM-5 runs, timed whole.
	CM5Runs int
	CM5     time.Duration
	// Checkpoint spills: snapshot plus encode, and the atomic write.
	Spills      int
	SpillEncode time.Duration
	SpillWrite  time.Duration
	SpillBytes  int64
}

// New returns an empty accumulator.
func New() *Layers { return &Layers{Comm: map[string]time.Duration{}} }

// Self sums every layer's self time; the layers' intervals are
// disjoint, so the sum never exceeds the wall time that covered them.
func (l *Layers) Self() time.Duration {
	s := l.Lex + l.Parse + l.Lower + l.Opt + l.Partition + l.Store + l.HostSelf + l.Dispatch + l.CM5 + l.SpillEncode + l.SpillWrite
	for _, d := range l.Comm {
		s += d
	}
	return s
}

// Compile runs the front end phase by phase, as f90y.CompileCtx does,
// timing each phase. !HPF$ directives are applied untimed between
// lower and opt.
func (l *Layers) Compile(file, src string, cfg f90y.Config) (*fe.Program, error) {
	var rep source.Reporter
	t := time.Now()
	toks := lexer.Tokens(file, src, &rep)
	l.Lex += lap(&t)
	if rep.HasErrors() {
		return nil, rep.Err()
	}
	tree, err := parser.ParseTokens(toks, &rep)
	l.Parse += lap(&t)
	if err != nil {
		return nil, err
	}
	mod, err := lower.Lower(tree)
	l.Lower += lap(&t)
	if err != nil {
		return nil, err
	}
	if len(tree.Directives) > 0 || len(cfg.Distribute) > 0 {
		if err := fe.ApplyDirectives(tree, mod.Syms, cfg.Distribute); err != nil {
			return nil, err
		}
		lap(&t)
	}
	omod, ostats := opt.Optimize(mod, cfg.Opt)
	l.Opt += lap(&t)
	prog, pstats, err := partition.Compile(omod, cfg.PE)
	l.Partition += lap(&t)
	if err != nil {
		return nil, err
	}
	l.Compiles++
	l.Tokens += len(toks)
	l.FusedMoves += ostats.FusedMoves
	l.HoistedComms += ostats.HoistedComms
	l.NodeRoutines += pstats.NodeRoutines
	for _, r := range prog.Routines {
		l.PEACInstrs += r.InstrCount()
	}
	return prog, nil
}

// lap returns the time since *t and restarts it.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// Result is what a traced run computed: its final store and modeled
// statistics.
type Result struct {
	Store      *rt.Store
	Output     []string
	HostCycles float64
	PECycles   float64
	CommCycles float64
	Flops      int64
	NodeCalls  int
	CommCalls  int
}

// RunCM2 executes prog on m the way the CM/2 machine does, timing store
// set-up, each routine dispatch, each communication move, and the host
// VM's own time. With spillDir set it also writes a checkpoint every
// SpillEvery host boundaries into that directory, as f90yd does under
// -state-dir.
func (l *Layers) RunCM2(ctx context.Context, m *cm2.Machine, prog *fe.Program, spillDir string) (*Result, error) {
	t0 := time.Now()
	store := rt.NewStore(prog.Syms)
	storeTime := time.Since(t0)
	comm := &rt.Comm{Store: store, PEs: m.PEs, Cost: m.CommCost}
	res := &Result{Store: store}

	var dispatch, commTime time.Duration
	hooks := hostvm.Hooks{
		Dispatch: func(r *peac.Routine, over shape.Shape) error {
			t := time.Now()
			defer func() { dispatch += time.Since(t) }()
			if over == nil {
				return fmt.Errorf("trace: node routine %s without a shape: %w", r.Name, cm2.ErrDispatch)
			}
			layout := shape.Distribute(over, m.PEs, r.Dist)
			sub := layout.SubgridSize()
			res.PECycles += float64(m.PECost.RoutineCycles(r, sub))
			res.Flops += int64(r.FlopsPerIteration()) * int64((sub+peac.VectorWidth-1)/peac.VectorWidth) * int64(layout.PEsUsed())
			res.NodeCalls++
			l.DispatchElems += int64(shape.Size(over))
			return cm2.ExecRoutineOpts(ctx, r, over, store, cm2.ExecOpts{Subgrid: sub, PEs: m.PEs})
		},
		Comm: func(mv nir.Move) error {
			before := classCycles(comm)
			t := time.Now()
			err := comm.ExecMove(mv)
			d := time.Since(t)
			commTime += d
			l.Comm[chargedClass(before, classCycles(comm))] += d
			return err
		},
	}
	var ctl *hostvm.Ctl
	if spillDir != "" {
		ctl = &hostvm.Ctl{CheckpointEvery: SpillEvery, Checkpoint: func(vm *hostvm.VM, next int, inLoop bool, iterDone int) error {
			t := time.Now()
			ck := rt.SnapshotBoundary(store, comm,
				rt.Boundary{Machine: "cm2", NextOp: next, InLoop: inLoop, IterDone: iterDone},
				rt.HostState{Output: vm.Output, Cycles: vm.Cycles, ClassCycles: vm.ClassCycles()},
				rt.ExecTotals{Flops: res.Flops, NodeCalls: res.NodeCalls, PECycles: res.PECycles})
			data, err := ck.Encode()
			if err != nil {
				return err
			}
			l.SpillEncode += lap(&t)
			err = rt.WriteFileAtomic(filepath.Join(spillDir, "job.ckpt"), data)
			l.SpillWrite += lap(&t)
			l.Spills++
			l.SpillBytes += int64(len(data))
			return err
		}}
	}
	spillBefore := l.SpillEncode + l.SpillWrite
	t1 := time.Now()
	vm, err := hostvm.RunCtx(ctx, prog, store, m.HostCost, hooks, ctl)
	vmTime := time.Since(t1)
	if spillDir != "" {
		os.Remove(filepath.Join(spillDir, "job.ckpt"))
	}
	if err != nil {
		return nil, err
	}
	l.CM2Runs++
	l.Store += storeTime
	for _, a := range store.Arrays {
		l.StoreBytes += int64(8 * len(a.Data))
	}
	l.Dispatch += dispatch
	l.Dispatches += res.NodeCalls
	l.PECycles += res.PECycles
	l.CommCalls += comm.Calls
	// Spills run inside the host VM's boundaries; they are their own layer.
	l.HostSelf += vmTime - dispatch - commTime - (l.SpillEncode + l.SpillWrite - spillBefore)

	res.Output = vm.Output
	res.HostCycles = vm.Cycles
	res.CommCycles = comm.Cycles
	res.CommCalls = comm.Calls
	return res, nil
}

// RunCM5 times a whole CM-5 run under ctl (nil for none); the CM-5
// harness is not split further.
func (l *Layers) RunCM5(ctx context.Context, m *cm5.Machine, prog *fe.Program, ctl *cm2.Control) (*cm5.Result, error) {
	t := time.Now()
	res, err := m.RunCtx(ctx, prog, nil, ctl)
	if err != nil {
		return nil, err
	}
	l.CM5 += time.Since(t)
	l.CM5Runs++
	return res, nil
}

func classCycles(c *rt.Comm) [3]float64 {
	var out [3]float64
	for i, cl := range rt.CommClasses {
		out[i] = c.ClassCycles[cl]
	}
	return out
}

// chargedClass names the network a move was charged to: the class
// whose modeled cycles grew (the grid when none did).
func chargedClass(before, after [3]float64) string {
	for i, cl := range rt.CommClasses {
		if after[i] != before[i] {
			return cl
		}
	}
	return rt.CommGrid
}
