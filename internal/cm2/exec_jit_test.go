package cm2

// Differential tests for the PEAC engine (jit.go): every test runs the
// reference interpreter (ref_test.go) as the oracle and asserts the
// engine is bit-identical — stores compared by Float64bits, error
// strings byte for byte, numeric-plane tallies count for count — across
// chunk boundaries, worker counts, and the engine's reference and opt
// chains. The chained-memory cases live with their regressions in
// exec_par_test.go, next to the routine the chunk-boundary test shares.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// TestExecJITChunkBoundaries runs the chunk routine at element counts
// around every chunk boundary, serial and parallel, and asserts each
// engine store is bit-identical to the reference interpreter's.
func TestExecJITChunkBoundaries(t *testing.T) {
	r := chunkRoutine()
	for _, n := range []int{1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 5} {
		ref := chunkStore(n)
		if err := execRef(r, ref, n); err != nil {
			t.Fatalf("n=%d reference: %v", n, err)
		}
		for _, workers := range []int{1, 2, 8, -1} {
			st := chunkStore(n)
			if err := execEngine(r, st, n, workers); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			sameStores(t, fmt.Sprintf("n=%d workers=%d", n, workers), ref, st)
		}
	}
}

// TestExecJITIntegerStoreKind asserts the compiled store path applies
// the array's kind semantics: stores into an Integer32 array truncate,
// masked and unmasked, exactly like the reference's StoreVal.
func TestExecJITIntegerStoreKind(t *testing.T) {
	r := &peac.Routine{
		Name: "Pintstore",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ConstParam, Value: 2, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.S(16), D: peac.V(1)}, // i/2: halves are fractional
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
		},
	}
	const n = 12
	mk := func() *rt.Store {
		st := parStore(n, []string{"a"}, func(_ string, i int) float64 { return float64(i) })
		di := rt.NewArray(nir.Integer32, shape.Of(n))
		st.Arrays["d"] = di
		return st
	}
	st := mk()
	if err := execChecked(t, r, shape.Of(n), st); err != nil {
		t.Fatal(err)
	}
	for i, got := range st.Arrays["d"].Data {
		if got != float64(i/2) {
			t.Fatalf("d[%d] = %v, want %v (integer store must truncate)", i, got, float64(i/2))
		}
	}
}

// TestExecJITErrorStrings drives every class of executor error through
// the engine and the reference and asserts the strings are
// byte-identical and name the fault: the uniform
// unbound-pointer taxonomy (load, chained load, store, and the distinct
// store-to-coordinate case), the data-dependent integer div/mod faults,
// and the unimplemented-opcode backstop.
func TestExecJITErrorStrings(t *testing.T) {
	baseParams := []peac.Param{
		{Kind: peac.ArrayParam, Name: "a", Reg: 2},
		{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		{Kind: peac.CoordParam, Dim: 1, Reg: 5},
	}
	cases := []struct {
		name string
		body []peac.Instr
		want string // substring naming the fault
	}{
		{"load-unbound", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(9), D: peac.V(0)},
		}, "load from unbound pointer aP9"},
		{"chained-unbound-B", []peac.Instr{
			{Op: peac.FADDV, A: peac.M(2), B: peac.M(9), D: peac.V(0)},
		}, "chained load from unbound pointer aP9"},
		{"chained-unbound-C-of-2src", []peac.Instr{
			// The reference resolves C even for a two-source op; the
			// engine must fault identically.
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), C: peac.M(9), D: peac.V(0)},
		}, "chained load from unbound pointer aP9"},
		{"store-unbound", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(9)},
		}, "store to unbound pointer aP9"},
		{"store-coordinate", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(5)},
		}, "store to coordinate stream aP5"},
		{"int-div-zero", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2), IntOp: true},
		}, "integer division by zero"},
		{"int-mod-zero", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FMODV, A: peac.V(0), B: peac.V(1), D: peac.V(2), IntOp: true},
		}, "mod by zero"},
		{"unimplemented-opcode", []peac.Instr{
			{Op: peac.Opcode(250), A: peac.V(0), B: peac.V(1), D: peac.V(2)},
		}, "unimplemented opcode"},
	}
	const n = 16
	for _, tc := range cases {
		r := &peac.Routine{Name: "Perr_" + tc.name, Params: baseParams, Body: tc.body}
		st := parStore(n, []string{"a", "d"}, func(name string, i int) float64 { return 1 })
		err := execChecked(t, r, shape.Of(n), st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestExecJITTrapIdentical plants exceptional lanes in two chunks and
// asserts the engine traps with the reference's exact error
// — same instruction, element, and PE attribution — for every worker
// count.
func TestExecJITTrapIdentical(t *testing.T) {
	r := &peac.Routine{
		Name: "Pjittrap",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 3 * chunkSize
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			if name == "b" {
				if i == chunkSize+55 || i == 2*chunkSize+3 {
					return 0
				}
				return 2
			}
			return 1
		})
	}
	opts := func(workers int) ExecOpts {
		return ExecOpts{Num: &rt.Numeric{Mode: rt.NumericTrap}, Subgrid: 8, PEs: 2048, Workers: workers}
	}
	ref := refExec(r, shape.Of(n), mk(), opts(1))
	if ref == nil || !errors.Is(ref, rt.ErrNumeric) {
		t.Fatalf("reference trap = %v, want rt.ErrNumeric", ref)
	}
	for _, workers := range []int{1, 2, 8} {
		got := ExecRoutineOpts(context.Background(), r, shape.Of(n), mk(), opts(workers))
		if got == nil || got.Error() != ref.Error() {
			t.Errorf("workers=%d: trap %q, want %q", workers, got, ref)
		}
		if !errors.Is(got, rt.ErrNumeric) {
			t.Errorf("workers=%d: trap does not wrap rt.ErrNumeric", workers)
		}
	}
}

// TestExecJITNumericRecordParity asserts record-mode tallies from the
// engine match the reference's exactly, per class, across worker
// counts.
func TestExecJITNumericRecordParity(t *testing.T) {
	r := &peac.Routine{
		Name: "Pjitnum",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FLOGV, A: peac.V(1), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 2*chunkSize + 77
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			switch name {
			case "a":
				if i%89 == 0 {
					return 0
				}
				return 1
			case "b":
				if i%11 == 0 {
					return 0
				}
				return 2
			}
			return 0
		})
	}
	ref := &rt.Numeric{Mode: rt.NumericRecord}
	if err := refExec(r, shape.Of(n), mk(), ExecOpts{Num: ref, Subgrid: 8, PEs: 2048}); err != nil {
		t.Fatal(err)
	}
	if ref.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	for _, workers := range []int{1, 4, -1} {
		got := &rt.Numeric{Mode: rt.NumericRecord}
		if err := ExecRoutineOpts(context.Background(), r, shape.Of(n), mk(),
			ExecOpts{Num: got, Subgrid: 8, PEs: 2048, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameNumeric(t, "workers="+itoaTest(workers), ref, got)
	}
}

// TestExecJITRecordMergeOnFailure is the executor-bugfix regression: a
// FAILING parallel dispatch must still merge the per-worker numeric
// record planes — before the fix the error path returned without
// merging, silently dropping every tally the workers accumulated. The
// failure is planted in the LAST chunk, so the monotone chunk-claim
// order guarantees every earlier chunk is claimed (and runs to
// completion) before the failing chunk cancels the pool: serial and
// parallel tallies are deterministic and must equal the reference's.
func TestExecJITRecordMergeOnFailure(t *testing.T) {
	r := &peac.Routine{
		Name: "Pfail",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "c", Reg: 5},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)}, // b==0 lanes -> Inf, recorded
			{Op: peac.FLODV, A: peac.M(5), D: peac.V(3)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(3), D: peac.V(4), IntOp: true}, // c==0 -> error
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 3*chunkSize + 17
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "c", "d"}, func(name string, i int) float64 {
			switch name {
			case "a":
				return 1
			case "b":
				if i%31 == 0 {
					return 0 // Inf lanes sprinkled through every chunk
				}
				return 2
			case "c":
				if i == n-5 {
					return 0 // the only failure, in the last chunk
				}
				return 1
			}
			return 0
		})
	}
	refNum := &rt.Numeric{Mode: rt.NumericRecord}
	refErr := refExec(r, shape.Of(n), mk(), ExecOpts{Num: refNum, Subgrid: 8, PEs: 2048})
	if refErr == nil {
		t.Fatal("reference run did not fail; test inputs are broken")
	}
	if refNum.Total() == 0 {
		t.Fatal("reference failing run recorded no tallies; test inputs are broken")
	}
	for _, workers := range []int{1, 2, 8} {
		num := &rt.Numeric{Mode: rt.NumericRecord}
		err := ExecRoutineOpts(context.Background(), r, shape.Of(n), mk(),
			ExecOpts{Num: num, Subgrid: 8, PEs: 2048, Workers: workers})
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("workers=%d: err %q, want %q", workers, err, refErr)
		}
		// A dropped record plane on the error path shows as missing tallies.
		sameNumeric(t, "workers="+itoaTest(workers), refNum, num)
	}
}

// TestExecJITScalarAndNoOperand asserts scalar broadcast (SReg, Const)
// and missing-operand resolution match the reference: a NoOperand
// source reads broadcast zeros.
func TestExecJITScalarAndNoOperand(t *testing.T) {
	r := &peac.Routine{
		Name: "Pscal",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ScalarParam, Name: "s", Reg: 17},
			{Kind: peac.ConstParam, Value: 2.5, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FMULV, A: peac.V(0), B: peac.S(17), D: peac.V(1)},
			// B is NoOperand: the reference broadcasts 0, so this adds 0.
			{Op: peac.FADDV, A: peac.V(1), D: peac.V(1)},
			{Op: peac.FMADDV, A: peac.V(1), B: peac.S(16), C: peac.S(18), D: peac.V(1)}, // S18 unbound -> 0
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
		},
	}
	const n = 33
	mk := func() *rt.Store {
		st := parStore(n, []string{"a", "d"}, func(name string, i int) float64 {
			if name == "a" {
				return float64(i) + 0.25
			}
			return 0
		})
		st.Scalars["s"] = 3.5
		return st
	}
	if err := execChecked(t, r, shape.Of(n), mk()); err != nil {
		t.Fatal(err)
	}
}

// fuseRoutine builds "t = a ?1 b; d0 = acc ?2 s (or s ?2 acc); store"
// so every fused-pair shape (op pair x accumulator side) runs against
// the reference, with the pair's result sunk into the store.
func fuseRoutine(op1, op2 peac.Opcode, accLeft bool) *peac.Routine {
	second := peac.Instr{Op: op2, A: peac.V(0), B: peac.S(16), D: peac.V(0)}
	if !accLeft {
		second = peac.Instr{Op: op2, A: peac.S(16), B: peac.V(0), D: peac.V(0)}
	}
	return &peac.Routine{
		Name: "Pfuse",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ConstParam, Value: 1.7, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: op1, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			second,
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
		},
	}
}

// TestExecJITFusedPairs sweeps every fused-pair combination the planner
// can emit — op1 x op2 x accumulator side — over inputs that include
// zeros (hence Inf and NaN intermediates for div) and asserts the
// engine's store is bit-identical to the reference, serial and parallel.
func TestExecJITFusedPairs(t *testing.T) {
	ops := []peac.Opcode{peac.FADDV, peac.FSUBV, peac.FMULV, peac.FDIVV}
	const n = chunkSize + 601
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i%13) - 6 // negatives and zeros
		case "b":
			return float64(i % 7) // zero divisors -> Inf/NaN lanes
		}
		return 0
	}
	for _, op1 := range ops {
		for _, op2 := range ops {
			for _, accLeft := range []bool{true, false} {
				r := fuseRoutine(op1, op2, accLeft)
				ref := parStore(n, []string{"a", "b", "d"}, fill)
				if err := execRef(r, ref, n); err != nil {
					t.Fatalf("%v/%v reference: %v", op1, op2, err)
				}
				for _, workers := range []int{1, 4} {
					st := parStore(n, []string{"a", "b", "d"}, fill)
					if err := execEngine(r, st, n, workers); err != nil {
						t.Fatalf("%v/%v engine: %v", op1, op2, err)
					}
					sameStores(t, fmt.Sprintf("op1=%v op2=%v accLeft=%v workers=%d", op1, op2, accLeft, workers), ref, st)
				}
			}
		}
	}
}

// TestExecJITSinkAliasing runs a sinkable chain with the store target
// bound to the same array as a load source — the hazard check must
// reject the opt chain and the reference chain must still match the
// reference interpreter bit for bit (in-place update semantics).
func TestExecJITSinkAliasing(t *testing.T) {
	r := &peac.Routine{
		Name: "Psinkalias",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "a", Reg: 4}, // store target aliases the load
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FSUBV, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			{Op: peac.FMULV, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
		},
	}
	const n = 2*chunkSize + 31
	fill := func(name string, i int) float64 {
		if name == "a" {
			return float64(i%19) + 0.5
		}
		return float64(i%5) + 1
	}
	ref := parStore(n, []string{"a", "b"}, fill)
	if err := execRef(r, ref, n); err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, workers := range []int{1, 4} {
		st := parStore(n, []string{"a", "b"}, fill)
		if err := execEngine(r, st, n, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameStores(t, "workers="+itoaTest(workers), ref, st)
	}
}

// TestExecJITFusionLiveness pins the planner's deadness rule: a register
// consumed by a later instruction must not be fused away or sunk, so the
// chain that stores v0 and then reuses it still matches the reference.
func TestExecJITFusionLiveness(t *testing.T) {
	r := &peac.Routine{
		Name: "Plive",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ArrayParam, Name: "e", Reg: 5},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)}, // v0 still live: no sink
			{Op: peac.FMULV, A: peac.V(0), B: peac.V(0), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(5)},
		},
	}
	const n = chunkSize + 77
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i % 11)
		case "b":
			return float64(i%3) + 0.25
		}
		return 0
	}
	names := []string{"a", "b", "d", "e"}
	ref := parStore(n, names, fill)
	if err := execRef(r, ref, n); err != nil {
		t.Fatalf("reference: %v", err)
	}
	st := parStore(n, names, fill)
	if err := execEngine(r, st, n, 2); err != nil {
		t.Fatalf("engine: %v", err)
	}
	sameStores(t, "liveness", ref, st)
}

// TestExecJITFusedNumericRecord runs a fusable chain with the numeric
// record plane active: the fused chain skips intermediate scans, so the
// engine must fall back to its reference chain and the tallies (and the
// store) must match the reference interpreter exactly.
func TestExecJITFusedNumericRecord(t *testing.T) {
	r := fuseRoutine(peac.FDIVV, peac.FMULV, true)
	const n = chunkSize + 99
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i%13) - 6
		case "b":
			return float64(i % 7) // zero divisors -> overflow tallies
		}
		return 0
	}
	wantSt := parStore(n, []string{"a", "b", "d"}, fill)
	wantNum := &rt.Numeric{Mode: rt.NumericRecord}
	if err := refExec(r, shape.Of(n), wantSt, ExecOpts{Num: wantNum, Subgrid: 8, PEs: 2048}); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if wantNum.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	gotSt := parStore(n, []string{"a", "b", "d"}, fill)
	gotNum := &rt.Numeric{Mode: rt.NumericRecord}
	if err := ExecRoutineOpts(context.Background(), r, shape.Of(n), gotSt,
		ExecOpts{Num: gotNum, Subgrid: 8, PEs: 2048, Workers: 2}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	sameNumeric(t, "fused record", wantNum, gotNum)
	sameStores(t, "fused record", wantSt, gotSt)
}
