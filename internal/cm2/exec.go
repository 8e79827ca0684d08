package cm2

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// chunkSize bounds executor memory: registers are materialized for this
// many elements at a time. The cycle model is analytic, so the chunk size
// has no effect on reported performance, only on simulation memory. It is
// also the sharding grain of the parallel executor: chunk boundaries are
// fixed by this constant, never by the worker count, which is one of the
// two invariants that make results bit-exact under parallelism (the other
// is that chunks cover disjoint element ranges).
const chunkSize = 4096

// stream is one pointer-register binding: an array subgrid stream or a
// coordinate subgrid.
type stream struct {
	arr      *rt.Array
	coordDim int // 0 = array stream, else coordinate dimension (1-based)
}

// TestOnlyPerturb, when non-nil, runs after every routine execution
// with the routine name and the store. It exists solely so tests can
// deliberately corrupt a backend's results and assert the differential
// oracle (internal/oracle) catches them with a first-divergence report;
// production code never sets it. The hook costs one nil check per
// dispatch.
var TestOnlyPerturb func(routine string, store *rt.Store)

// ExecOpts configures one routine execution beyond the routine, shape,
// and store themselves. The zero value is the plain serial path.
type ExecOpts struct {
	// Num attaches the numeric-exception plane: destination lanes of
	// every can-trap float op are scanned for NaN/Inf after execution.
	// Nil disables the scan.
	Num *rt.Numeric
	// Subgrid is the per-PE element count of the dispatch layout, used
	// to attribute an exceptional lane to its processing element.
	Subgrid int
	// PEs is the machine's processing-element count; when positive it
	// clamps the numeric plane's PE attribution, so a caller-supplied
	// subgrid that does not tile the shape exactly can never report a
	// processing element beyond the machine.
	PEs int
	// Workers fans chunk execution out across a worker pool: 0 and 1
	// run serially, n > 1 runs n workers, negative selects GOMAXPROCS.
	// Results are bit-exact and invariant under the worker count:
	// chunks cover disjoint element ranges, so grid-local routines
	// execute independently per chunk, and every per-element value is
	// computed by the identical kernel chain regardless of which worker
	// ran its chunk.
	Workers int
	// Rec receives pool runtime telemetry from the parallel path:
	// per-worker busy spans (one trace track per worker), chunk spans,
	// chunk-claim wait and chunk duration histograms, and utilization
	// counters, all under the "execpool/" namespace. Wall-clock only —
	// it never feeds modeled cycles, so attaching a recorder cannot
	// perturb results. Nil (or a serial run) records nothing.
	Rec obs.Recorder
}

// ExecRoutineOpts executes a PEAC routine functionally over the whole
// shape. All PEs run the identical program over their subgrids;
// executing over the flattened array in chunks is exact for grid-local
// code. It is shared by every machine model built on the PEAC ISA
// (CM/2, CM/5). The routine runs as its compiled kernel chain (jit.go),
// translated once per routine and dispatched per chunk, optionally
// across a chunk worker pool (see ExecOpts). The context is honored by
// the parallel path between chunks: a canceled context stops the
// fan-out and returns an error wrapping rt.ErrCanceled.
//
// Error and numeric-plane semantics under parallelism are deterministic:
// the error returned is always the one the serial executor would have
// hit first (the failing chunk with the lowest element range wins,
// regardless of worker completion order), and record-mode numeric
// tallies are merged per class, so totals match a serial run exactly.
// The only divergence a failing parallel run may exhibit is which
// not-yet-reported chunks also executed before the pool drained — a
// failed run's store contents are unspecified on the serial path too.
func ExecRoutineOpts(ctx context.Context, r *peac.Routine, over shape.Shape, store *rt.Store, o ExecOpts) error {
	n := shape.Size(over)
	ext := shape.Extents(over)
	lo := shape.Lowers(over)
	streams, scalars, err := bindParams(r, over, store)
	if err != nil {
		return err
	}
	strideBelow := coordStrides(ext)

	prog := jitFor(r)
	// Kernels index streams by pointer register once per strip, so they
	// get a dense slice instead of the map.
	maxReg := -1
	for reg := range streams {
		maxReg = max(maxReg, reg)
	}
	jstreams := make([]stream, maxReg+1)
	for reg, st := range streams {
		jstreams[reg] = st
	}
	// The optimized chain is valid unless one of its hazard stream
	// pairs — a store that executes between an elided load and one of
	// its redirected reads — binds the same array as the load in this
	// dispatch, or a sunk store's array is Integer32 (its bypassed
	// StoreLanes would have truncated, not copied).
	optOK := true
	for _, hz := range prog.hazards {
		if streams[hz[0]].arr == streams[hz[1]].arr {
			optOK = false
			break
		}
	}
	for _, s := range prog.sunk {
		if streams[s].arr.Kind == nir.Integer32 {
			optOK = false
			break
		}
	}
	nbcast := len(prog.scalarRegs)
	runChunk := func(ws *workspace, start, w int, num *rt.Numeric) error {
		env := jitEnv{ws: ws, streams: jstreams, start: start, w: w,
			ext: ext, lo: lo, strideBelow: strideBelow,
			num: num, subgrid: o.Subgrid, npes: o.PEs, optOK: optOK}
		return prog.execChunk(&env)
	}

	nchunks := (n + chunkSize - 1) / chunkSize
	workers := o.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		ws := getWorkspace(prog.nregs, r.SpillSlots, nbcast)
		defer putWorkspace(ws)
		prog.bindScalars(ws, scalars)
		for start := 0; start < n; start += chunkSize {
			w := min(chunkSize, n-start)
			if err := runChunk(ws, start, w, o.Num); err != nil {
				return fmt.Errorf("cm2: routine %s: %w", r.Name, err)
			}
		}
		if TestOnlyPerturb != nil {
			TestOnlyPerturb(r.Name, store)
		}
		return nil
	}

	// Parallel fan-out. Chunks are claimed off a monotone counter, so by
	// the time chunk k is claimed every chunk below k has been claimed
	// too; a failing chunk cancels further claims but already-claimed
	// chunks run to completion. Together these guarantee that the
	// lowest-indexed error is always discovered, which is exactly the
	// error the serial loop would have returned.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		done   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, nchunks)
	nums := make([]*rt.Numeric, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ws := getWorkspace(prog.nregs, r.SpillSlots, nbcast)
			defer putWorkspace(ws)
			prog.bindScalars(ws, scalars)
			// Each worker tallies (or traps) into a private plane;
			// record-mode counts merge after the pool drains.
			var wnum *rt.Numeric
			if o.Num != nil {
				wnum = &rt.Numeric{Mode: o.Num.Mode}
				nums[wk] = wnum
			}
			// Pool telemetry: each worker records on its own track, so
			// the Chrome trace shows one lane per worker with the busy
			// span and the chunk spans inside it. All of it is gated on
			// o.Rec so the plain hot path runs unchanged.
			track := wk + 1
			if o.Rec != nil {
				obs.Add(o.Rec, "execpool/workers", 1)
				busy := obs.StartTrack(o.Rec, "worker/"+r.Name, track)
				defer busy.End()
			}
			for cctx.Err() == nil {
				var claim time.Time
				if o.Rec != nil {
					claim = time.Now()
				}
				idx := int(next.Add(1)) - 1
				if idx >= nchunks {
					return
				}
				start := idx * chunkSize
				w := min(chunkSize, n-start)
				var sp obs.Span
				var t0 time.Time
				if o.Rec != nil {
					t0 = time.Now()
					obs.Observe(o.Rec, "execpool/chunk-claim-wait-ns", float64(t0.Sub(claim).Nanoseconds()))
					sp = obs.StartTrack(o.Rec, "chunk/"+r.Name, track)
				}
				err := runChunk(ws, start, w, wnum)
				if o.Rec != nil {
					sp.End()
					obs.Observe(o.Rec, "execpool/chunk-ns", float64(time.Since(t0).Nanoseconds()))
					obs.Add(o.Rec, "execpool/chunks", 1)
					obs.Add(o.Rec, "execpool/elements", float64(w))
				}
				if err != nil {
					errs[idx] = err
					failed.Store(true)
					cancel()
					return
				}
				done.Add(1)
			}
		}(wk)
	}
	wg.Wait()

	// Merge the per-worker numeric planes before ANY exit, error paths
	// included: the serial loop tallies record-mode counts straight into
	// o.Num before returning its error, so a failing parallel run must
	// surface the tallies its workers accumulated too, not drop them.
	if o.Num != nil {
		for _, wn := range nums {
			o.Num.Merge(wn)
		}
	}
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("cm2: routine %s: %w", r.Name, err)
			}
		}
	}
	if int(done.Load()) < nchunks {
		// No chunk failed but not all ran: the caller's context ended.
		return fmt.Errorf("cm2: routine %s: %w", r.Name, rt.Canceled(ctx))
	}
	if TestOnlyPerturb != nil {
		TestOnlyPerturb(r.Name, store)
	}
	return nil
}

// bindParams resolves the routine's parameters against the store:
// pointer registers to array or coordinate streams, scalar registers to
// their values. A missing array or scalar, a non-conforming array, or a
// coordinate dimension outside the shape is an error.
func bindParams(r *peac.Routine, over shape.Shape, store *rt.Store) (map[int]stream, map[int]float64, error) {
	n := shape.Size(over)
	rank := len(shape.Extents(over))
	streams := map[int]stream{}
	scalars := map[int]float64{}
	for _, p := range r.Params {
		switch p.Kind {
		case peac.ArrayParam:
			arr, ok := store.Arrays[p.Name]
			if !ok {
				return nil, nil, fmt.Errorf("cm2: routine %s references undefined array %q", r.Name, p.Name)
			}
			if arr.Size() != n {
				return nil, nil, fmt.Errorf("cm2: array %q size %d does not conform to shape %v", p.Name, arr.Size(), over)
			}
			streams[p.Reg] = stream{arr: arr}
		case peac.CoordParam:
			if p.Dim < 1 || p.Dim > rank {
				return nil, nil, fmt.Errorf("cm2: coordinate dim %d out of range for %v", p.Dim, over)
			}
			streams[p.Reg] = stream{coordDim: p.Dim}
		case peac.ScalarParam:
			v, ok := store.Scalars[p.Name]
			if !ok {
				return nil, nil, fmt.Errorf("cm2: routine %s references undefined scalar %q", r.Name, p.Name)
			}
			scalars[p.Reg] = v
		case peac.ConstParam:
			scalars[p.Reg] = p.Value
		}
	}
	return streams, scalars, nil
}

// coordStrides returns the column-major element stride below each
// dimension, which coordinate streams divide by.
func coordStrides(ext []int) []int {
	strideBelow := make([]int, len(ext))
	s := 1
	for d := range ext {
		strideBelow[d] = s
		s *= ext[d]
	}
	return strideBelow
}

// workspace is one executor worker's private mutable state: the
// materialized vector register file, the spill area, and one fetch
// buffer per chained-memory operand position (A, B, C — each distinct
// chained stream of an instruction gets its own buffer, so an
// instruction may chain several streams without aliasing). Workspaces
// are pooled: the per-routine register-file allocation that used to
// dominate small dispatches is paid once per worker lifetime, not once
// per routine.
type workspace struct {
	regs  [][]float64
	slots [][]float64
	mem   [3][]float64
	// bcast holds the scalar broadcast buffers (one per distinct scalar
	// register a routine reads; see jit.go).
	bcast [][]float64
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

// getWorkspace returns a pooled workspace with capacity for at least
// nregs vector registers, nslots spill slots, and nbcast scalar
// broadcast buffers. Lane contents are unspecified: PEAC routines are
// single basic blocks whose register allocator guarantees definition
// before use, every op writes exactly the [0, w) lanes it is asked for,
// and the broadcast buffers are refilled per dispatch.
func getWorkspace(nregs, nslots, nbcast int) *workspace {
	ws := wsPool.Get().(*workspace)
	for len(ws.regs) < nregs {
		ws.regs = append(ws.regs, make([]float64, chunkSize))
	}
	for len(ws.slots) < nslots {
		ws.slots = append(ws.slots, make([]float64, chunkSize))
	}
	for len(ws.bcast) < nbcast {
		ws.bcast = append(ws.bcast, make([]float64, chunkSize))
	}
	for i := range ws.mem {
		if ws.mem[i] == nil {
			ws.mem[i] = make([]float64, chunkSize)
		}
	}
	return ws
}

func putWorkspace(ws *workspace) { wsPool.Put(ws) }

// fetchMem reads a pointer stream for [start, start+w) into dst.
func fetchMem(st stream, dst []float64, start, w int, ext, lo, strideBelow []int) {
	if st.coordDim > 0 {
		d := st.coordDim - 1
		for i := 0; i < w; i++ {
			off := start + i
			dst[i] = float64(lo[d] + (off/strideBelow[d])%ext[d])
		}
		return
	}
	copy(dst[:w], st.arr.Data[start:start+w])
}

// scanNumeric is the numeric-exception plane: it inspects the freshly
// written destination lanes of one can-trap float op. Trap mode halts
// at the first exceptional lane with instruction, element, and PE
// attribution (the caller prepends the routine name); record mode
// tallies lanes per cycle class and lets the run continue. When npes is
// positive the PE attribution is clamped to the machine: a subgrid that
// does not tile the shape exactly can otherwise compute an element-to-PE
// quotient past the last processing element.
//
// The mnemonic and class strings are parameters so the compiled engine
// can precompute them per instruction, and the reference interpreter in
// the tests can share this one formatter — either way the trap message
// and the record-mode class keys are byte-identical.
func scanNumeric(num *rt.Numeric, idx int, mnemonic, class string, dst []float64, start, w, subgrid, npes int) error {
	for i := 0; i < w; i++ {
		v := dst[i]
		nan := v != v
		if !nan && !math.IsInf(v, 0) {
			continue
		}
		if num.Mode == rt.NumericTrap {
			kind := "inf"
			if nan {
				kind = "nan"
			}
			pe := 0
			if subgrid > 0 {
				pe = (start + i) / subgrid
				if npes > 0 && pe >= npes {
					pe = npes - 1
				}
			}
			return fmt.Errorf("instr %d %s: %s produced at element %d (processing element %d): %w",
				idx, mnemonic, kind, start+i, pe, rt.ErrNumeric)
		}
		num.Note(class, nan)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
