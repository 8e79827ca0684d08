package cm2

// The reference PEAC executor: a direct instruction-by-instruction
// switch over the ISA, resolving every operand per element. It shares
// no code with the compiled engine (jit.go) beyond parameter binding,
// stream fetches and the numeric-plane formatter, which makes it the
// engine's independent oracle: every differential test runs a routine
// through both and demands bit-identical stores, byte-identical error
// strings, and count-identical numeric tallies. It runs serially; the
// engine's worker pool is checked against it, not mirrored by it.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// refExec executes r over the whole shape through the reference
// interpreter, chunk by chunk in element order, honoring o's numeric
// plane and PE attribution (o.Workers and o.Rec are ignored). Errors
// carry the same "cm2: routine" prefix ExecRoutineOpts adds.
func refExec(r *peac.Routine, over shape.Shape, store *rt.Store, o ExecOpts) error {
	n := shape.Size(over)
	ext := shape.Extents(over)
	lo := shape.Lowers(over)
	streams, scalars, err := bindParams(r, over, store)
	if err != nil {
		return err
	}
	strideBelow := coordStrides(ext)

	// Size the register file from the routine itself so register-file
	// ablations (pe.Options.VRegs) execute unchanged.
	nregs := peac.NumVRegs
	for _, in := range r.Body {
		for _, o := range []peac.Operand{in.A, in.B, in.C, in.D} {
			if o.Kind == peac.VReg && o.N >= nregs {
				nregs = o.N + 1
			}
		}
	}
	ws := getWorkspace(nregs, r.SpillSlots, 0)
	defer putWorkspace(ws)
	for start := 0; start < n; start += chunkSize {
		w := min(chunkSize, n-start)
		if err := execChunk(r, ws, streams, scalars, start, w, ext, lo, strideBelow, o.Num, o.Subgrid, o.PEs); err != nil {
			return fmt.Errorf("cm2: routine %s: %w", r.Name, err)
		}
	}
	return nil
}

func execChunk(r *peac.Routine, ws *workspace, streams map[int]stream, scalars map[int]float64,
	start, w int, ext, lo, strideBelow []int, num *rt.Numeric, subgrid, npes int) error {

	regs, slots := ws.regs, ws.slots

	// source resolves one operand to a lane slice or a broadcast scalar.
	// A chained memory operand is fetched into buf — each operand
	// position passes its own buffer, so an instruction with several
	// chained streams (Mem in A and B, an FSTRV with a Mem source or
	// mask) reads each stream's own lanes, never another operand's
	// leftover fetch.
	source := func(o peac.Operand, buf []float64) ([]float64, float64, error) {
		switch o.Kind {
		case peac.VReg:
			return regs[o.N], 0, nil
		case peac.SReg:
			return nil, scalars[o.N], nil
		case peac.SpillSlot:
			return slots[o.N], 0, nil
		case peac.Mem:
			st, ok := streams[o.N]
			if !ok {
				return nil, 0, fmt.Errorf("chained load from unbound pointer aP%d", o.N)
			}
			fetchMem(st, buf, start, w, ext, lo, strideBelow)
			return buf, 0, nil
		}
		return nil, 0, nil
	}

	at := func(sl []float64, sc float64, i int) float64 {
		if sl != nil {
			return sl[i]
		}
		return sc
	}

	for idx, in := range r.Body {
		switch in.Op {
		case peac.JNZ, peac.NOP:
			continue
		case peac.FLODV:
			st, ok := streams[in.A.N]
			if !ok {
				return fmt.Errorf("load from unbound pointer aP%d", in.A.N)
			}
			fetchMem(st, regs[in.D.N], start, w, ext, lo, strideBelow)
			continue
		case peac.RESTV:
			copy(regs[in.D.N][:w], slots[in.A.N][:w])
			continue
		case peac.SPILLV:
			copy(slots[in.D.N][:w], regs[in.A.N][:w])
			continue
		case peac.FSTRV:
			// The unbound-pointer taxonomy: a target register no param
			// binds is "unbound"; one bound to a coordinate stream is a
			// distinct, read-only-target error (coordinates are computed,
			// not stored). The compiled path produces both byte-identically.
			st, ok := streams[in.D.N]
			if !ok {
				return fmt.Errorf("store to unbound pointer aP%d", in.D.N)
			}
			if st.arr == nil {
				return fmt.Errorf("store to coordinate stream aP%d", in.D.N)
			}
			src, srcSc, err := source(in.A, ws.mem[0])
			if err != nil {
				return err
			}
			if in.C.Kind != peac.NoOperand {
				mask, maskSc, err := source(in.C, ws.mem[2])
				if err != nil {
					return err
				}
				for i := 0; i < w; i++ {
					if at(mask, maskSc, i) != 0 {
						st.arr.StoreVal(start+i, at(src, srcSc, i))
					}
				}
			} else {
				for i := 0; i < w; i++ {
					st.arr.StoreVal(start+i, at(src, srcSc, i))
				}
			}
			continue
		}

		// Arithmetic: resolve the sources, fetching each chained memory
		// operand into its own per-position buffer.
		av, asc, err := source(in.A, ws.mem[0])
		if err != nil {
			return err
		}
		bv, bsc, err := source(in.B, ws.mem[1])
		if err != nil {
			return err
		}
		cv, csc, err := source(in.C, ws.mem[2])
		if err != nil {
			return err
		}
		dst := regs[in.D.N]

		switch in.Op {
		case peac.FADDV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i) + at(bv, bsc, i)
			}
		case peac.FSUBV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i) - at(bv, bsc, i)
			}
		case peac.FMULV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i) * at(bv, bsc, i)
			}
		case peac.FDIVV:
			if in.IntOp {
				for i := 0; i < w; i++ {
					d := at(bv, bsc, i)
					if d == 0 {
						return fmt.Errorf("integer division by zero")
					}
					dst[i] = math.Trunc(at(av, asc, i) / d)
				}
			} else {
				for i := 0; i < w; i++ {
					dst[i] = at(av, asc, i) / at(bv, bsc, i)
				}
			}
		case peac.FMODV:
			if in.IntOp {
				for i := 0; i < w; i++ {
					d := at(bv, bsc, i)
					if d == 0 {
						return fmt.Errorf("mod by zero")
					}
					x := at(av, asc, i)
					dst[i] = x - math.Trunc(x/d)*d
				}
			} else {
				for i := 0; i < w; i++ {
					dst[i] = math.Mod(at(av, asc, i), at(bv, bsc, i))
				}
			}
		case peac.FMINV:
			for i := 0; i < w; i++ {
				dst[i] = math.Min(at(av, asc, i), at(bv, bsc, i))
			}
		case peac.FMAXV:
			for i := 0; i < w; i++ {
				dst[i] = math.Max(at(av, asc, i), at(bv, bsc, i))
			}
		case peac.FMADDV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i)*at(bv, bsc, i) + at(cv, csc, i)
			}
		case peac.FMSUBV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i)*at(bv, bsc, i) - at(cv, csc, i)
			}
		case peac.FNEGV:
			for i := 0; i < w; i++ {
				dst[i] = -at(av, asc, i)
			}
		case peac.FABSV:
			for i := 0; i < w; i++ {
				dst[i] = math.Abs(at(av, asc, i))
			}
		case peac.FSQRTV:
			for i := 0; i < w; i++ {
				dst[i] = math.Sqrt(at(av, asc, i))
			}
		case peac.FSINV:
			for i := 0; i < w; i++ {
				dst[i] = math.Sin(at(av, asc, i))
			}
		case peac.FCOSV:
			for i := 0; i < w; i++ {
				dst[i] = math.Cos(at(av, asc, i))
			}
		case peac.FTANV:
			for i := 0; i < w; i++ {
				dst[i] = math.Tan(at(av, asc, i))
			}
		case peac.FEXPV:
			for i := 0; i < w; i++ {
				dst[i] = math.Exp(at(av, asc, i))
			}
		case peac.FLOGV:
			for i := 0; i < w; i++ {
				dst[i] = math.Log(at(av, asc, i))
			}
		case peac.FTRNCV:
			for i := 0; i < w; i++ {
				dst[i] = math.Trunc(at(av, asc, i))
			}
		case peac.FMOVV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i)
			}
		case peac.FCMPV:
			for i := 0; i < w; i++ {
				x, y := at(av, asc, i), at(bv, bsc, i)
				var t bool
				switch in.Cmp {
				case peac.CmpEQ:
					t = x == y
				case peac.CmpNE:
					t = x != y
				case peac.CmpLT:
					t = x < y
				case peac.CmpLE:
					t = x <= y
				case peac.CmpGT:
					t = x > y
				case peac.CmpGE:
					t = x >= y
				}
				dst[i] = b2f(t)
			}
		case peac.FANDV:
			for i := 0; i < w; i++ {
				dst[i] = b2f(at(av, asc, i) != 0 && at(bv, bsc, i) != 0)
			}
		case peac.FORV:
			for i := 0; i < w; i++ {
				dst[i] = b2f(at(av, asc, i) != 0 || at(bv, bsc, i) != 0)
			}
		case peac.FEQVV:
			for i := 0; i < w; i++ {
				dst[i] = b2f((at(av, asc, i) != 0) == (at(bv, bsc, i) != 0))
			}
		case peac.FNEQV:
			for i := 0; i < w; i++ {
				dst[i] = b2f((at(av, asc, i) != 0) != (at(bv, bsc, i) != 0))
			}
		case peac.FNOTV:
			for i := 0; i < w; i++ {
				dst[i] = b2f(at(av, asc, i) == 0)
			}
		case peac.FSELV:
			for i := 0; i < w; i++ {
				if at(cv, csc, i) != 0 {
					dst[i] = at(av, asc, i)
				} else {
					dst[i] = at(bv, bsc, i)
				}
			}
		default:
			return fmt.Errorf("unimplemented opcode %v", in.Mnemonic())
		}
		if num != nil && num.Mode != rt.NumericOff && peac.CanTrap(in.Op) {
			if err := scanNumeric(num, idx, in.Mnemonic(), peac.ClassOf(in).String(), dst, start, w, subgrid, npes); err != nil {
				return err
			}
		}
	}
	return nil
}

// execEngine runs r over n elements through the production engine.
func execEngine(r *peac.Routine, st *rt.Store, n, workers int) error {
	return ExecRoutineOpts(context.Background(), r, shape.Of(n), st, ExecOpts{Workers: workers})
}

// execRef runs r over n elements through the reference interpreter.
func execRef(r *peac.Routine, st *rt.Store, n int) error {
	return refExec(r, shape.Of(n), st, ExecOpts{})
}

// execChecked runs r over `over` through the engine on st and through
// the reference on a copy of st, and returns the engine's error. It
// fails t unless the errors are byte-identical and, for a successful
// run, the stores are bit-identical — so every closed-form executor
// test doubles as a differential test.
func execChecked(t *testing.T, r *peac.Routine, over shape.Shape, st *rt.Store) error {
	t.Helper()
	ref := cloneStore(st)
	refErr := refExec(r, over, ref, ExecOpts{})
	err := ExecRoutineOpts(context.Background(), r, over, st, ExecOpts{})
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: engine error %v, reference error %v", r.Name, err, refErr)
	}
	if err == nil {
		sameStores(t, r.Name, ref, st)
	}
	return err
}

// cloneStore deep-copies a store's arrays and scalars.
func cloneStore(st *rt.Store) *rt.Store {
	out := &rt.Store{
		Arrays:  map[string]*rt.Array{},
		Scalars: rt.CopyMap(st.Scalars),
		Kinds:   map[string]nir.ScalarKind{},
	}
	for name, a := range st.Arrays {
		c := *a
		c.Data = append([]float64(nil), a.Data...)
		out.Arrays[name] = &c
	}
	for name, k := range st.Kinds {
		out.Kinds[name] = k
	}
	return out
}

// sameStores fails t unless got holds exactly want's arrays, each
// bit-identical (compared by Float64bits), and equal scalars.
func sameStores(t *testing.T, label string, want, got *rt.Store) {
	t.Helper()
	if len(got.Arrays) != len(want.Arrays) {
		t.Fatalf("%s: %d arrays, want %d", label, len(got.Arrays), len(want.Arrays))
	}
	for name, wa := range want.Arrays {
		ga := got.Arrays[name]
		if ga == nil || len(ga.Data) != len(wa.Data) {
			t.Fatalf("%s: array %q missing or resized", label, name)
		}
		for i, w := range wa.Data {
			if math.Float64bits(ga.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %v, want %v (not bit-exact)", label, name, i, ga.Data[i], w)
			}
		}
	}
	for name, w := range want.Scalars {
		if g, ok := got.Scalars[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: scalar %s = %v, want %v", label, name, g, w)
		}
	}
}

// sameNumeric fails t unless got's per-class NaN and Inf tallies equal
// want's.
func sameNumeric(t *testing.T, label string, want, got *rt.Numeric) {
	t.Helper()
	if got.Total() != want.Total() {
		t.Errorf("%s: %d exceptional lanes tallied, want %d", label, got.Total(), want.Total())
	}
	for cl, c := range want.NaN {
		if got.NaN[cl] != c {
			t.Errorf("%s: NaN[%s] = %d, want %d", label, cl, got.NaN[cl], c)
		}
	}
	for cl, c := range want.Inf {
		if got.Inf[cl] != c {
			t.Errorf("%s: Inf[%s] = %d, want %d", label, cl, got.Inf[cl], c)
		}
	}
}
