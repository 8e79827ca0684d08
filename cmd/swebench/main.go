// Command swebench reproduces the experiments of the paper's evaluation
// (§6 and the worked figures) on the simulated CM/2, printing
// paper-versus-measured tables.
//
// Usage:
//
//	swebench [-n 1024] [-steps 4] [-experiment e1|e2|e3|e4|e5|e6|e7|all]
//	         [-parallel N] [-exec-workers N]
//	swebench -json [-parallel N] [-o BENCH_swe.json] [-n 1024] [-steps 4]
//	         [-profile] [-profile-pprof swe.pb.gz] [-profile-folded swe.folded]
//	swebench -bench-batch [-parallel N] [-o BENCH_batch.json]
//	swebench -layout-sweep [-layout-n 65536] [-layout-iters 2]
//	         [-layout-verify] [-o BENCH_layout.json]
//	swebench -soak N [-json [-o SOAK.json]] [-parallel N] [-repro-dir DIR]
//	swebench -serve-url http://127.0.0.1:8090 [-load 64] [-load-workers 8]
//	         [-serve-wait 10s] [-o LOAD_swe.json]
//	swebench -restart N -server-bin ./f90yd [-state-dir DIR]
//	         [-restart-io-faults seed=1,torn=0.05] [-o CRASH_swe.json]
//
// With -serve-url the suite turns into a traffic generator against a
// running f90yd server (see serve.go): a deterministic mix of healthy,
// verified, fault-injected, budget-killer, and oversized jobs is fired
// from concurrent clients, every response is checked against the
// documented error taxonomy (any 500 fails the run), and a
// "f90y-load/v1" record with healthy-request p50/p99 latencies is
// written to -o.
//
// With -restart the suite becomes a crash-safety harness (see
// restart.go): it launches its own f90yd on a durable -state-dir,
// SIGKILLs it mid-load N times, relaunches it on the same state, and
// fails unless every acknowledged job is recovered with a result
// byte-identical to an uninterrupted baseline — or, under
// -restart-io-faults, is lost ONLY as a server-reported torn-record
// casualty. A "f90y-crash/v1" record goes to -o.
//
// With -parallel N the seven experiments run concurrently on an
// N-worker pool (N < 1 selects GOMAXPROCS): each experiment renders
// into its own buffer, buffers print in experiment order, and every
// table is byte-identical to a serial run — the experiments share one
// compile cache (internal/driver) but no mutable run state.
//
// With -json the SWE benchmark runs once with full telemetry and a
// machine-readable record (schema "f90y-bench/v1", see json.go) is
// written to -o (default BENCH_swe_n<N>_s<steps>.json); the output path
// is printed to stdout. -parallel runs the three measured systems
// (Fortran-90-Y, CM Fortran model, *Lisp model) concurrently.
//
// The record always carries a "profile" summary (total attributed
// cycles + five hottest source lines); the -profile* flags additionally
// emit the full artifacts from the same run — the annotated source
// listing to stdout, a pprof protobuf, and folded flamegraph stacks.
//
// With -bench-batch the whole suite is timed twice — serial, then on
// the parallel pool — and a "f90y-batch/v1" record comparing the two
// wall-clocks is written to -o (default BENCH_batch.json).
//
// With -layout-sweep the router-heavy kernel trio (transpose, FFT
// butterfly, irregular gather) runs under BLOCK / CYCLIC / ALIGN'd
// !HPF$ data distributions and a deterministic "f90y-layout/v1" record
// (per-layout cycles, NEWS/router/reduce split, best layout, spread)
// is written to -o (default BENCH_layout_n<N>_i<iters>.json; see
// layout.go). -layout-verify first pushes every (kernel, layout) pair
// through the differential oracle at a reduced size.
//
// With -soak N the suite's kernels are verified through the
// differential oracle and chaos-soaked across N seeds x fault plans x
// both backends (see soak.go); fault-invariance violations are
// minimized to reproducer specs under -repro-dir and fail the command.
// -json writes a "f90y-soak/v1" record to -o (default stdout).
//
// -exec-workers N is orthogonal to -parallel: where -parallel runs
// whole experiments concurrently, -exec-workers shards each individual
// PEAC routine dispatch across N chunk workers over disjoint element
// ranges (1 = serial, the default; N < 0 selects GOMAXPROCS). Every
// table, record, and cycle total is bit-identical for every value —
// only host wall-clock changes.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/cmf"
	"f90y/internal/driver"
	"f90y/internal/opt"
	"f90y/internal/pe"
	"f90y/internal/peac"
	"f90y/internal/starlisp"
	"f90y/internal/workload"
)

var (
	flagN          = flag.Int("n", 1024, "SWE grid edge")
	flagSteps      = flag.Int("steps", 4, "SWE time steps")
	flagExp        = flag.String("experiment", "all", "experiment id: e1..e7 or all")
	flagJSON       = flag.Bool("json", false, "write a machine-readable benchmark record instead of tables")
	flagOut        = flag.String("o", "", "output path for -json/-bench-batch (defaults depend on mode)")
	flagFaults     = flag.String("faults", "", driver.FaultsHelp)
	flagParallel   = flag.Int("parallel", 0, "run experiments concurrently on an N-worker pool (0 = serial, <0 = GOMAXPROCS)")
	flagBenchBatch = flag.Bool("bench-batch", false, "time the suite serial vs parallel and write a f90y-batch/v1 record")
	flagSoak       = flag.Int("soak", 0, "chaos-soak: verify all kernels differentially, then sweep N seeds x fault plans x backends")
	flagReproDir   = flag.String("repro-dir", "soak-repros", "directory for fault-invariance reproducer specs (-soak)")
	flagExecW      = flag.Int("exec-workers", 1, "shard each routine dispatch across N chunk workers (1 = serial, <0 = GOMAXPROCS); results are bit-exact")
	flagServeURL   = flag.String("serve-url", "", "load-generator client mode: fire a mixed job stream at a running f90yd and write a f90y-load/v1 record")
	flagLoad       = flag.Int("load", 64, "with -serve-url: total requests to issue")
	flagLoadW      = flag.Int("load-workers", 8, "with -serve-url: concurrent client connections")
	flagServeWait  = flag.Duration("serve-wait", 10*time.Second, "with -serve-url: how long to poll /healthz for the server to come up")
	flagProf       = flag.Bool("profile", false, "with -json: print the SWE run's source-annotated cycle profile to stdout")
	flagProfPB     = flag.String("profile-pprof", "", "with -json: write the SWE run's pprof protobuf profile")
	flagProfFG     = flag.String("profile-folded", "", "with -json: write the SWE run's folded stacks for flamegraph tooling")
	flagLayout     = flag.Bool("layout-sweep", false, "sweep the kernel trio across !HPF$ data distributions and write a f90y-layout/v1 record")
	flagLayoutN    = flag.Int("layout-n", 65536, "with -layout-sweep: problem size (elements)")
	flagLayoutIter = flag.Int("layout-iters", 2, "with -layout-sweep: kernel iterations")
	flagLayoutVer  = flag.Bool("layout-verify", false, "with -layout-sweep: oracle-verify each (kernel, layout) pair at a reduced size first")
	flagRestart    = flag.Int("restart", 0, "crash harness: SIGKILL and relaunch the managed server N times mid-load, verifying bit-identical recovery (see restart.go)")
	flagServerBin  = flag.String("server-bin", "", "with -restart: path to the f90yd binary to launch, kill, and relaunch")
	flagStateDir   = flag.String("state-dir", "", "with -restart: server durability directory (default: a fresh temp dir)")
	flagIOFaults   = flag.String("restart-io-faults", "", "with -restart: -io-faults spec passed to the server, e.g. seed=1,torn=0.05,short=0.05")
)

// execWorkers normalizes the -exec-workers flag: explicit serial (1)
// becomes the zero value so the zero-overhead executor path is taken.
func execWorkers() int {
	if *flagExecW == 1 {
		return 0
	}
	return *flagExecW
}

// newService builds the shared compile-and-run service with the
// -exec-workers default applied, so every run the suite dispatches
// shards its routines the same way.
func newService(workers int) *driver.Service {
	svc := driver.New(workers)
	svc.ExecWorkers = execWorkers()
	return svc
}

// experiment is one reproduction: it renders its table to w, running
// compiles and executions through the shared service.
type experiment struct {
	id string
	fn func(w io.Writer, svc *driver.Service, n, steps int) error
}

// experiments lists the suite in presentation order.
var experiments = []experiment{
	{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e7", e7},
}

func main() {
	flag.Parse()
	workers := *flagParallel
	if (*flagProf || *flagProfPB != "" || *flagProfFG != "") && !*flagJSON {
		die(fmt.Errorf("-profile, -profile-pprof, and -profile-folded require -json (they profile the measured SWE run)"))
	}
	if *flagRestart > 0 {
		if err := runRestart(os.Stdout, *flagServerBin, *flagRestart, *flagStateDir, *flagIOFaults, *flagOut); err != nil {
			die(err)
		}
		return
	}
	if *flagServeURL != "" {
		if err := runServeLoad(os.Stdout, *flagServeURL, *flagLoad, *flagLoadW, *flagServeWait, *flagOut); err != nil {
			die(err)
		}
		return
	}
	if *flagSoak > 0 {
		failures, err := runSoak(os.Stdout, *flagSoak, workers, *flagReproDir, *flagJSON, *flagOut)
		if err != nil {
			die(err)
		}
		if failures > 0 {
			os.Exit(1)
		}
		return
	}
	if *flagLayout {
		if err := runLayoutSweep(os.Stdout, *flagOut, *flagLayoutN, *flagLayoutIter, *flagLayoutVer); err != nil {
			die(err)
		}
		return
	}
	if *flagBenchBatch {
		if err := runBenchBatch(*flagOut, *flagN, *flagSteps, workers); err != nil {
			die(err)
		}
		return
	}
	if *flagJSON {
		writeJSON(*flagOut, *flagN, *flagSteps, workers)
		return
	}

	ids := []string{}
	if *flagExp == "all" {
		for _, e := range experiments {
			ids = append(ids, e.id)
		}
	} else {
		ids = append(ids, *flagExp)
	}
	svc := newService(workers)
	if err := runSuite(os.Stdout, svc, ids, *flagN, *flagSteps, workers); err != nil {
		die(err)
	}
}

// runSuite executes the named experiments against one shared service.
// workers > 1 runs them concurrently, each into a private buffer;
// buffers flush to w in experiment order, so the bytes written are
// identical to a serial run.
func runSuite(w io.Writer, svc *driver.Service, ids []string, n, steps, workers int) error {
	byID := map[string]func(io.Writer, *driver.Service, int, int) error{}
	for _, e := range experiments {
		byID[e.id] = e.fn
	}
	blank := len(ids) > 1 // "all" mode separates tables with a blank line
	for _, id := range ids {
		if byID[id] == nil {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	if workers <= 1 || len(ids) == 1 {
		for _, id := range ids {
			if err := byID[id](w, svc, n, steps); err != nil {
				return err
			}
			if blank {
				fmt.Fprintln(w)
			}
		}
		return nil
	}

	bufs := make([]bytes.Buffer, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = byID[id](&bufs[i], svc, n, steps)
		}(i, id)
	}
	wg.Wait()
	for i := range ids {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", ids[i], errs[i])
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		if blank {
			fmt.Fprintln(w)
		}
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "swebench:", err)
	os.Exit(1)
}

// runF90Y compiles (through the shared cache) and runs one program on
// the default CM/2.
func runF90Y(svc *driver.Service, file, src string, cfg f90y.Config) (*cm2.Result, error) {
	res := svc.Run(context.Background(), driver.Job{Name: file, File: file, Source: src, Config: cfg})
	return res.CM2, res.Err
}

// compileF90Y compiles through the shared cache without running.
func compileF90Y(svc *driver.Service, file, src string, cfg f90y.Config) (*f90y.Compilation, error) {
	art, err := svc.Compile(context.Background(), file, src, cfg)
	if err != nil {
		return nil, err
	}
	return art.Comp, nil
}

// e1 is the §6 performance table: SWE sustained GFLOPS for hand-coded
// *Lisp (fieldwise), the CMF v1.1 model, and Fortran-90-Y.
func e1(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.SWE(n, steps)

	_, sl := starlisp.RunSWE(n, steps, starlisp.DefaultModel)
	slGF := sl.GFLOPS(starlisp.DefaultModel.ClockHz)

	machine := cm2.Default()
	cmfProg, _, err := cmf.Compile("swe.f90", src)
	if err != nil {
		return err
	}
	cmfRes, err := machine.Run(cmfProg)
	if err != nil {
		return err
	}

	f90yRes, err := runF90Y(svc, "swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "E1 (§6): SWE sustained performance, %dx%d grid, %d steps, 2048 PEs @ 7 MHz\n", n, n, steps)
	fmt.Fprintf(w, "%-28s %-14s %s\n", "system", "modeled GF", "paper GF")
	fmt.Fprintf(w, "%-28s %-14.2f %.2f\n", "hand-coded *Lisp (fieldwise)", slGF, 1.89)
	fmt.Fprintf(w, "%-28s %-14.2f %.2f\n", "CM Fortran v1.1 (model)", cmfRes.GFLOPS(), 2.79)
	fmt.Fprintf(w, "%-28s %-14.2f %.2f\n", "Fortran-90-Y", f90yRes.GFLOPS(), 2.99)
	fmt.Fprintf(w, "detail: f90y cycles/step pe=%.0f comm=%.0f host=%.0f calls=%d | cmf calls=%d\n",
		f90yRes.PECycles/float64(steps), f90yRes.CommCycles/float64(steps),
		f90yRes.HostCycles/float64(steps), f90yRes.NodeCalls, cmfRes.NodeCalls)
	return nil
}

// e2 is the Fig. 9 domain-blocking transformation: phase counts before and
// after.
func e2(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.Fig9(64)
	with, err := runF90Y(svc, "fig9.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	without, err := runF90Y(svc, "fig9.f90", src, f90y.Config{Opt: opt.Options{PadSections: true}, PE: pe.Optimized})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E2 (Fig. 9): domain blocking — like-shape moves fuse into one computation block")
	fmt.Fprintf(w, "%-24s %-12s %s\n", "configuration", "node calls", "total cycles")
	fmt.Fprintf(w, "%-24s %-12d %.0f\n", "naive (per statement)", without.NodeCalls, without.TotalCycles())
	fmt.Fprintf(w, "%-24s %-12d %.0f\n", "blocked (F90-Y)", with.NodeCalls, with.TotalCycles())
	return nil
}

// e3 is the Fig. 10 masked-assignment blocking experiment.
func e3(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.Fig10(32)
	with, err := runF90Y(svc, "fig10.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	without, err := runF90Y(svc, "fig10.f90", src, f90y.Config{Opt: opt.Options{PadSections: true}, PE: pe.Optimized})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E3 (Fig. 10): masked-assignment blocking — disjoint masked sections share a block")
	fmt.Fprintf(w, "%-24s %-12s %s\n", "configuration", "node calls", "total cycles")
	fmt.Fprintf(w, "%-24s %-12d %.0f\n", "unblocked", without.NodeCalls, without.TotalCycles())
	fmt.Fprintf(w, "%-24s %-12d %.0f\n", "blocked (F90-Y)", with.NodeCalls, with.TotalCycles())
	return nil
}

// e4 is the Fig. 11 partition-structure experiment over an alternating
// phase graph.
func e4(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.Fig11(64, 16)
	naive, err := compileF90Y(svc, "fig11.f90", src, f90y.Config{Opt: opt.Options{PadSections: true}, PE: pe.Optimized})
	if err != nil {
		return err
	}
	blocked, err := compileF90Y(svc, "fig11.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E4 (Fig. 11): naive vs blocked vs partitioned program structure")
	fmt.Fprintf(w, "%-24s %-16s %-12s %s\n", "configuration", "node routines", "comm calls", "host ops")
	n1 := naive.Program.CountOps()
	n2 := blocked.Program.CountOps()
	fmt.Fprintf(w, "%-24s %-16d %-12d %d\n", "naive", n1["callnode"], n1["comm"], n1["assign"])
	fmt.Fprintf(w, "%-24s %-16d %-12d %d\n", "blocked+partitioned", n2["callnode"], n2["comm"], n2["assign"])
	return nil
}

// e5 is the Fig. 12 naive-versus-optimized PEAC encoding of the SWE
// excerpt.
func e5(w io.Writer, svc *driver.Service, n, steps int) error {
	// Per-statement partitioning isolates the Fig. 12 statement as its own
	// PEAC routine; only the PE/NIR optimization level differs.
	src := workload.Fig12(64)
	perStmt := opt.Options{PadSections: true}
	compN, err := compileF90Y(svc, "fig12.f90", src, f90y.Config{Opt: perStmt, PE: pe.Naive})
	if err != nil {
		return err
	}
	compO, err := compileF90Y(svc, "fig12.f90", src, f90y.Config{Opt: perStmt, PE: pe.Optimized})
	if err != nil {
		return err
	}
	pick := func(c *f90y.Compilation) *peac.Routine {
		var best *peac.Routine
		for _, r := range c.Program.Routines {
			if best == nil || r.InstrCount() > best.InstrCount() {
				best = r
			}
		}
		return best
	}
	rn, ro := pick(compN), pick(compO)
	cm := peac.DefaultCost
	fmt.Fprintln(w, "E5 (Fig. 12): SWE excerpt, naive vs optimized PEAC encoding")
	fmt.Fprintf(w, "%-12s %-14s %-14s %s\n", "encoding", "instructions", "issue slots", "cycles/iter")
	fmt.Fprintf(w, "%-12s %-14d %-14d %d\n", "naive", rn.InstrCount(), rn.IssueSlots(), cm.BodyCycles(rn.Body))
	fmt.Fprintf(w, "%-12s %-14d %-14d %d\n", "optimized", ro.InstrCount(), ro.IssueSlots(), cm.BodyCycles(ro.Body))
	fmt.Fprintln(w, "\nnaive encoding:")
	fmt.Fprint(w, rn.Format())
	fmt.Fprintln(w, "\noptimized encoding:")
	fmt.Fprint(w, ro.Format())
	return nil
}

// e6 is the §5.2 spill-pressure experiment: cycles as live values exceed
// the eight vector registers (one spill/restore pair = 18 cycles ≈ three
// vector ops).
func e6(w io.Writer, svc *driver.Service, n, steps int) error {
	fmt.Fprintln(w, "E6 (§5.2): spill pressure sweep (spill/restore pair = 18 cycles)")
	fmt.Fprintf(w, "%-8s %-14s %-12s %s\n", "terms", "instructions", "spill slots", "cycles/iter")
	for _, terms := range []int{4, 6, 8, 10, 12, 16} {
		src := workload.SpillKernel(1024, terms)
		comp, err := compileF90Y(svc, "spill.f90", src, f90y.DefaultConfig())
		if err != nil {
			return err
		}
		var r *peac.Routine
		for _, rt := range comp.Program.Routines {
			if r == nil || rt.InstrCount() > r.InstrCount() {
				r = rt
			}
		}
		fmt.Fprintf(w, "%-8d %-14d %-12d %d\n", terms, r.InstrCount(), r.SpillSlots, peac.DefaultCost.BodyCycles(r.Body))
	}
	return nil
}

// e7 is the §5.3.1 CM-5 retarget: the same partitioned program runs on
// both back ends.
func e7(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.SWE(n, steps)
	comp, err := compileF90Y(svc, "swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	cm2Res, err := cm2.Default().Run(comp.Program)
	if err != nil {
		return err
	}
	cm5Res, err := cm5.Default().Run(comp.Program)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E7 (§5.3.1): CM-5 retarget — identical front end, three-way node split")
	fmt.Fprintf(w, "%-10s %-12s %-16s %s\n", "target", "GFLOPS", "node calls", "comm cycles")
	fmt.Fprintf(w, "%-10s %-12.2f %-16d %.0f\n", "CM-2", cm2Res.GFLOPS(), cm2Res.NodeCalls, cm2Res.CommCycles)
	fmt.Fprintf(w, "%-10s %-12.2f %-16d %.0f\n", "CM-5", cm5Res.GFLOPS(), cm5Res.NodeCalls, cm5Res.CommCycles)
	fmt.Fprintf(w, "CM-5 node split: SPARC issue %.0f cycles, vector units %.0f cycles\n",
		cm5Res.SPARCCycles, cm5Res.VUCycles)
	return nil
}
