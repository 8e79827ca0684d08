package main

// Machine-readable benchmark output. `swebench -json` measures the §6
// SWE benchmark (the E1 table) with full telemetry and writes one JSON
// record, so experiment tables can be regenerated by scripts instead of
// scraped from stdout.
//
// Schema "f90y-bench/v1" (all cycle values are modeled CM/2 cycles;
// every *_classes map and pe_routines sums exactly to the matching
// cycles total):
//
//	{
//	  "schema": "f90y-bench/v1",
//	  "name": "swe",              benchmark kernel
//	  "n": 1024, "steps": 4,      SWE grid edge and time steps
//	  "pes": 2048,                processing elements
//	  "clock_hz": 7e6,            sequencer clock
//	  "gflops": 2.99,             modeled sustained rate
//	  "flops": 123,               floating-point operations executed
//	  "node_calls": 9,            PEAC routine dispatches
//	  "comm_calls": 12,           runtime communication invocations
//	  "cycles": {"host": h, "pe": p, "comm": c, "total": h+p+c},
//	  "pe_classes":   {"vector-arith": ..., "divide": ..., ...},
//	  "comm_classes": {"grid": ..., "router": ..., "reduce": ...},
//	  "host_classes": {"issue": ..., "scalar": ..., ...},
//	  "pe_routines":  {"Pk0": ..., ...},
//	  "phases": [{"name": "lex", "micros": 42.0}, ...],   wall time per
//	      compiler/exec phase, same-name spans summed (pe-codegen)
//	  "baselines": {"starlisp": 1.89, "cmf": 2.79},       modeled GFLOPS
//	  "exec_workers": 8,                  only when -exec-workers shards the
//	      executor (the requested worker count; every modeled field is
//	      bit-identical to a serial record regardless),
//	  "profile": {"total_cycles": p, "hot_lines": [{"file", "line",
//	      "cycles"}, ...]},               source-line attribution summary:
//	      total_cycles equals cycles.pe exactly and the five hottest lines
//	      ride along (full artifacts via -profile*),
//	  "faults": {...}                     only when -faults injected a plan:
//	      spec, injected counts per kind, retries, retry_cycles, degraded,
//	      dead_pes — serial fault-free records are byte-identical to older ones
//	}
//
// With -parallel the three measured systems (Fortran-90-Y, the CM
// Fortran model, the *Lisp model) are measured concurrently; every
// field of the record except the phase wall-times is identical to a
// serial run.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cmf"
	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/obs"
	"f90y/internal/obs/profile"
	"f90y/internal/starlisp"
	"f90y/internal/workload"
)

type benchRecord struct {
	Schema      string             `json:"schema"`
	Name        string             `json:"name"`
	N           int                `json:"n"`
	Steps       int                `json:"steps"`
	PEs         int                `json:"pes"`
	ClockHz     float64            `json:"clock_hz"`
	GFLOPS      float64            `json:"gflops"`
	Flops       int64              `json:"flops"`
	NodeCalls   int                `json:"node_calls"`
	CommCalls   int                `json:"comm_calls"`
	Cycles      benchCycles        `json:"cycles"`
	PEClasses   map[string]float64 `json:"pe_classes"`
	CommClasses map[string]float64 `json:"comm_classes"`
	HostClasses map[string]float64 `json:"host_classes"`
	PERoutines  map[string]float64 `json:"pe_routines"`
	Phases      []benchPhase       `json:"phases"`
	Baselines   benchBaselines     `json:"baselines"`
	ExecWorkers int                `json:"exec_workers,omitempty"`
	Faults      *benchFaults       `json:"faults,omitempty"`
	Profile     *benchProfile      `json:"profile,omitempty"`
}

// benchProfile summarizes the run's source-line cycle attribution: the
// attribution total (equals cycles.pe exactly — attribution conserves
// cycles) and the five hottest source lines. The full profile is
// available through the -profile* flags; this summary keeps the record
// self-contained for scripts.
type benchProfile struct {
	TotalCycles float64        `json:"total_cycles"`
	HotLines    []benchHotLine `json:"hot_lines"`
}

// benchHotLine is one aggregated source line in the hot-line ranking.
type benchHotLine struct {
	File   string  `json:"file"`
	Line   int     `json:"line"`
	Cycles float64 `json:"cycles"`
}

// benchFaults records what the fault plane injected and what recovery
// cost; present only when -faults attached a plan.
type benchFaults struct {
	Spec        string           `json:"spec,omitempty"`
	Seed        int64            `json:"seed"`
	Injected    map[string]int64 `json:"injected"`
	Retries     int64            `json:"retries"`
	RetryCycles float64          `json:"retry_cycles"`
	Degraded    int64            `json:"degraded"`
	DeadPEs     []int            `json:"dead_pes,omitempty"`
}

type benchCycles struct {
	Host  float64 `json:"host"`
	PE    float64 `json:"pe"`
	Comm  float64 `json:"comm"`
	Total float64 `json:"total"`
}

type benchPhase struct {
	Name   string  `json:"name"`
	Micros float64 `json:"micros"`
}

type benchBaselines struct {
	StarLisp float64 `json:"starlisp"`
	CMF      float64 `json:"cmf"`
}

// buildRecord runs the SWE benchmark under a telemetry collector with
// an optional fault plan and assembles the record plus the run's full
// source-line cycle profile (for the -profile* artifacts). workers > 1
// measures the three systems concurrently; execW shards the
// Fortran-90-Y run's routine dispatches (0/1 = serial). Separated from
// the file write so tests can assert record determinism directly.
func buildRecord(n, steps int, plan *faults.Plan, workers, execW int) (benchRecord, *profile.Profile, error) {
	src := workload.SWE(n, steps)
	ctx := context.Background()

	col := obs.NewCollector()
	cfg := f90y.DefaultConfig()
	cfg.Obs = col

	var (
		res            *cm2.Result
		slGF           float64
		cmfRes         *cm2.Result
		errF90, errCMF error
	)
	f90yPart := func() {
		comp, err := f90y.CompileCtx(ctx, "swe.f90", src, cfg)
		if err != nil {
			errF90 = err
			return
		}
		var ctl *cm2.Control
		if plan != nil || (execW != 0 && execW != 1) {
			ctl = &cm2.Control{ExecWorkers: execW}
			if plan != nil {
				ctl.Faults = faults.New(plan, col)
			}
		}
		res, errF90 = comp.RunCtlCtx(ctx, ctl)
	}
	slPart := func() {
		_, sl := starlisp.RunSWE(n, steps, starlisp.DefaultModel)
		slGF = sl.GFLOPS(starlisp.DefaultModel.ClockHz)
	}
	cmfPart := func() {
		cmfProg, _, err := cmf.Compile("swe.f90", src)
		if err != nil {
			errCMF = err
			return
		}
		cmfRes, errCMF = cm2.Default().Run(cmfProg)
	}

	if workers > 1 {
		var wg sync.WaitGroup
		for _, part := range []func(){f90yPart, slPart, cmfPart} {
			wg.Add(1)
			go func(part func()) { defer wg.Done(); part() }(part)
		}
		wg.Wait()
	} else {
		f90yPart()
		slPart()
		cmfPart()
	}
	if errF90 != nil {
		return benchRecord{}, nil, errF90
	}
	if errCMF != nil {
		return benchRecord{}, nil, errCMF
	}

	rec := benchRecord{
		Schema:    "f90y-bench/v1",
		Name:      "swe",
		N:         n,
		Steps:     steps,
		PEs:       cfg.Machine.PEs,
		ClockHz:   cfg.Machine.ClockHz,
		GFLOPS:    res.GFLOPS(),
		Flops:     res.Flops,
		NodeCalls: res.NodeCalls,
		CommCalls: res.CommCalls,
		Cycles: benchCycles{
			Host:  res.HostCycles,
			PE:    res.PECycles,
			Comm:  res.CommCycles,
			Total: res.TotalCycles(),
		},
		PEClasses:   res.PEClassCycles,
		CommClasses: res.CommClassCycles,
		HostClasses: res.HostClassCycles,
		PERoutines:  res.PERoutineCycles,
		Phases:      phaseTimes(col),
		Baselines: benchBaselines{
			StarLisp: slGF,
			CMF:      cmfRes.GFLOPS(),
		},
	}
	if execW != 0 && execW != 1 {
		rec.ExecWorkers = execW // omitted for serial: records stay byte-identical
	}
	if s := res.Faults; s != nil {
		rec.Faults = &benchFaults{
			Spec:        plan.Spec,
			Seed:        plan.Seed,
			Injected:    s.Injected,
			Retries:     s.Retries,
			RetryCycles: s.RetryCycles,
			Degraded:    s.Degraded,
			DeadPEs:     s.DeadPEs,
		}
	}
	var prof *profile.Profile
	if len(res.PELineCycles) > 0 {
		prof = profile.New(res.PELineCycles, map[string]string{"swe.f90": src})
		bp := &benchProfile{TotalCycles: prof.Total()}
		for _, h := range prof.HotLines(5) {
			bp.HotLines = append(bp.HotLines, benchHotLine{File: h.File, Line: h.Line, Cycles: h.Cycles})
		}
		rec.Profile = bp
	}
	return rec, prof, nil
}

// writeJSON runs the SWE benchmark and writes the record to path
// (default BENCH_swe_n<N>_s<steps>.json), printing the path on success.
func writeJSON(path string, n, steps, workers int) {
	if path == "" {
		path = fmt.Sprintf("BENCH_swe_n%d_s%d.json", n, steps)
	}
	plan, err := faults.ParseSpec(*flagFaults)
	if err != nil {
		die(err)
	}
	rec, prof, err := buildRecord(n, steps, plan, workers, execWorkers())
	if err != nil {
		die(err)
	}
	if err := writeRecord(path, rec); err != nil {
		die(err)
	}
	fmt.Println(path)
	po := driver.ProfileOptions{Text: *flagProf, Pprof: *flagProfPB, Folded: *flagProfFG}
	if err := po.Emit(prof, os.Stdout, os.Stderr); err != nil {
		die(err)
	}
}

// writeRecord writes any record as indented JSON.
func writeRecord(path string, rec any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeRecordTo(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRecordTo encodes any record as indented JSON onto w.
func writeRecordTo(w io.Writer, rec any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// phaseTimes aggregates the collector's spans by name (pe-codegen runs
// once per routine) in first-start order.
func phaseTimes(col *obs.Collector) []benchPhase {
	var out []benchPhase
	idx := map[string]int{}
	for _, s := range col.Spans() {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, benchPhase{Name: s.Name})
		}
		out[i].Micros += float64(s.Dur().Nanoseconds()) / 1e3
	}
	return out
}
