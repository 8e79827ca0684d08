// Command perfbench is the f90y benchmark. One run measures one
// workload and prints, as the last line of standard output, a JSON
// object with the correctness verdict, the attempted and failed counts,
// and the metrics: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1. The line before it is the run's record: sample
// counts, percentiles, bases of ratios, and phase details.
//
//	perfbench -workload swe-512|serve-mix|serve-durable -seed N -seconds S -trace 0|1 \
//	          -f90yd path/to/f90yd -workdir dir
//	perfbench -freeze perfbench/jobs/frozen.json
//
// perfbench/run.sh builds the program and this command and runs it
// with the flags it was given. -freeze recomputes the frozen modeled
// results (each program checked against the interpreter first) and
// rewrites them in the named file, keeping its rates and notes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"f90y/perfbench/e2e"
	"f90y/perfbench/jobs"
	"f90y/perfbench/stats"
	"f90y/perfbench/trace"
)

var (
	flagWorkload = flag.String("workload", "", "swe-512, serve-mix or serve-durable")
	flagSeed     = flag.Int64("seed", 1, "job stream seed")
	flagSeconds  = flag.Float64("seconds", 10, "measured seconds")
	flagTrace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced replay")
	flagF90yd    = flag.String("f90yd", "", "f90yd binary (serve workloads)")
	flagWorkdir  = flag.String("workdir", "", "scratch directory, removed on exit")
	flagFreeze   = flag.String("freeze", "", "rewrite the frozen modeled results in this file and exit")
)

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 5

// swe512Replays is how many swe-512 runs the traced replay makes.
const swe512Replays = 3

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	if *flagFreeze != "" {
		return freeze(*flagFreeze)
	}
	if *flagWorkdir == "" {
		return errors.New("-workdir is required")
	}
	if err := os.MkdirAll(*flagWorkdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(*flagWorkdir)
	frozen, err := jobs.Load()
	if err != nil {
		return err
	}
	// Never more threads or connections than CPUs.
	cpus := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > cpus {
		runtime.GOMAXPROCS(cpus)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	out := &output{Metrics: map[string]metric{}}
	rec := &record{Workload: *flagWorkload, Seed: *flagSeed, Seconds: *flagSeconds, Trace: *flagTrace,
		CPUs: cpus, GOMAXPROCS: runtime.GOMAXPROCS(0), Bases: map[string]string{}}
	switch *flagWorkload {
	case "swe-512":
		err = batch(ctx, frozen, out, rec)
	case "serve-mix", "serve-durable":
		err = serve(ctx, frozen, out, rec)
	default:
		err = fmt.Errorf("unknown workload %q", *flagWorkload)
	}
	if err != nil {
		return err
	}
	out.Correct = out.Failed == 0
	return emit(rec, out)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *output) set(name, unit string, v float64) { o.Metrics[name] = metric{v, unit} }

func (o *output) count(t e2e.Tally) {
	o.Attempted += t.Attempted
	o.Failed += t.Failed
}

// record is the run's detail line.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	CPUs       int               `json:"cpus"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Rates      *jobs.Rates       `json:"rates,omitempty"`
	SetupS     []float64         `json:"setup_s"`
	Reference  e2e.Tally         `json:"reference"`
	Phases     []phaseRecord     `json:"phases"`
	Bases      map[string]string `json:"bases"`
	Failures   []string          `json:"failures,omitempty"`
}

type phaseRecord struct {
	*e2e.Phase
	Latency   stats.Summary `json:"latency_ms"`
	Late      stats.Summary `json:"late_ms"`
	PerSecond float64       `json:"per_second"`
}

func (r *record) phase(p *e2e.Phase) phaseRecord {
	pr := phaseRecord{Phase: p, Latency: stats.Summarize(p.LatencyMs), Late: stats.Summarize(p.LateMs), PerSecond: p.PerSecond()}
	r.Phases = append(r.Phases, pr)
	r.Failures = append(r.Failures, p.Errors...)
	return pr
}

// latency sets the p50 and tail metrics of a phase.
func latency(out *output, rec *record, suffix string, pr phaseRecord) {
	out.set("job_ms_p50."+suffix, "ms", pr.Latency.P50)
	out.set("job_ms_tail."+suffix, "ms", pr.Latency.Tail)
	rec.Bases["job_ms_tail."+suffix] = fmt.Sprintf("p%.2f of %d samples in phase %s", pr.Latency.TailPct, pr.Latency.N, pr.Name)
}

func batch(ctx context.Context, frozen *jobs.Frozen, out *output, rec *record) error {
	res, err := e2e.Batch(ctx, e2e.BatchConfig{Seconds: *flagSeconds, Clients: rec.GOMAXPROCS, SetupReps: setupReps, Frozen: frozen.Modeled})
	if err != nil {
		return err
	}
	rec.SetupS, rec.Reference = res.SetupS, res.Reference
	rec.Failures = append(rec.Failures, res.Reference.Errors...)
	out.count(res.Reference)
	low, high := rec.phase(res.Low), rec.phase(res.High)
	out.count(res.Low.Tally)
	out.count(res.High.Tally)
	if *flagTrace == 0 {
		out.set("setup_s", "s", stats.Median(res.SetupS))
		latency(out, rec, "low", low)
		latency(out, rec, "high", high)
		out.set("jobs_per_s.sat", "1/s", high.PerSecond)
		rec.Bases["jobs_per_s.sat"] = fmt.Sprintf("%d runs, %d at a time in lockstep, in phase high", high.Attempted-high.Failed, rec.GOMAXPROCS)
		out.set("peak_rss_mb", "MB", res.PeakRSSMB)
		rec.Bases["peak_rss_mb"] = fmt.Sprintf("mean of this process's VmHWM over the one-client phase of each of %d rounds: %.1f MiB", len(res.RoundPeakRSSMB), res.RoundPeakRSSMB)
		return nil
	}
	list := make([]jobs.Job, swe512Replays)
	for i := range list {
		list[i] = res.Job
	}
	rp, err := trace.ReplayJobs(ctx, list[:1], list, "")
	if err != nil {
		return err
	}
	layers(out, rec, rp)
	ratio(out, rec, "driver.cache_hit_ratio", res.Hits, res.Lookups, "compile-cache hits/lookups over both phases")
	// No server and no open loop: their metrics are zero by definition.
	for _, name := range []string{"server.journal_records_per_job", "server.spill_writes_per_job", "server.disk_cache_writes_per_job"} {
		out.set(name, "count", 0)
	}
	out.set("server.overhead_ms", "ms", 0)
	out.set("gen.late_ms_tail", "ms", 0)
	return nil
}

func serve(ctx context.Context, frozen *jobs.Frozen, out *output, rec *record) error {
	rates, ok := frozen.Rates[*flagWorkload]
	if !ok {
		return fmt.Errorf("no frozen rates for %s", *flagWorkload)
	}
	if *flagF90yd == "" {
		return errors.New("-f90yd is required for serve workloads")
	}
	rec.Rates = &rates
	durable := *flagWorkload == "serve-durable"
	res, err := e2e.Serve(ctx, e2e.ServeConfig{
		Bin: *flagF90yd, Dir: filepath.Join(*flagWorkdir, "serve"), Durable: durable, Seed: *flagSeed,
		Seconds: *flagSeconds, Conns: rec.GOMAXPROCS, Rates: rates, SetupReps: setupReps, Frozen: frozen.Modeled,
	})
	if err != nil {
		return err
	}
	rec.SetupS, rec.Reference = res.SetupS, res.Reference
	rec.Failures = append(rec.Failures, res.Reference.Errors...)
	out.count(res.Reference)
	low, high, sat := rec.phase(res.Low), rec.phase(res.High), rec.phase(res.Sat)
	for _, p := range []*e2e.Phase{res.Low, res.High, res.Sat} {
		out.count(p.Tally)
	}
	if *flagTrace == 0 {
		out.set("setup_s", "s", stats.Median(res.SetupS))
		latency(out, rec, "low", low)
		latency(out, rec, "high", high)
		out.set("jobs_per_s.sat", "1/s", sat.PerSecond)
		rec.Bases["jobs_per_s.sat"] = fmt.Sprintf("%d jobs from %d closed-loop clients in phase sat", sat.Attempted-sat.Failed, rec.GOMAXPROCS)
		out.set("peak_rss_mb", "MB", res.PeakRSSMB)
		rec.Bases["peak_rss_mb"] = "VmHWM of the measured f90yd over its set-up and the measured phases"
		return nil
	}
	spill := ""
	if durable {
		spill = filepath.Join(*flagWorkdir, "spill")
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return err
		}
	}
	rp, err := trace.ReplayJobs(ctx, jobs.Warmup(), res.LowJobs, spill)
	if err != nil {
		return err
	}
	layers(out, rec, rp)
	b, a := res.Before, res.After
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	ratio(out, rec, "driver.cache_hit_ratio", hits, hits+misses, "f90yd compile-cache hits/lookups over the measured phases")
	done := float64(a.Jobs.Completed - b.Jobs.Completed)
	var journal, spills, writes float64
	if a.Durability != nil && b.Durability != nil {
		journal = float64(a.Durability.JournalRecords - b.Durability.JournalRecords)
		spills = float64(a.Durability.SpillWrites - b.Durability.SpillWrites)
		writes = float64(a.Durability.DiskCache.Writes - b.Durability.DiskCache.Writes)
	}
	out.set("server.journal_records_per_job", "count", journal/done)
	out.set("server.spill_writes_per_job", "count", spills/done)
	out.set("server.disk_cache_writes_per_job", "count", writes/done)
	rec.Bases["server.*_per_job"] = fmt.Sprintf("/statsz deltas over %.0f jobs completed in the measured phases", done)
	overhead := low.Latency.P50 - stats.Median(rp.RunMs)
	out.set("server.overhead_ms", "ms", overhead)
	rec.Bases["server.overhead_ms"] = fmt.Sprintf("HTTP p50 %.4f ms at the low rate minus in-process driver.Service.Run p50 %.4f ms over the same %d jobs",
		low.Latency.P50, stats.Median(rp.RunMs), len(rp.RunMs))
	late := stats.Summarize(append(append([]float64{}, res.Low.LateMs...), res.High.LateMs...))
	out.set("gen.late_ms_tail", "ms", late.Tail)
	rec.Bases["gen.late_ms_tail"] = fmt.Sprintf("p%.2f of %d open-loop sends", late.TailPct, late.N)
	return nil
}

func ratio(out *output, rec *record, name string, num, den int64, what string) {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	out.set(name, "ratio", v)
	rec.Bases[name] = fmt.Sprintf("%s = %d/%d", what, num, den)
}

// layers sets the per-layer metrics of a traced replay and checks its
// validity: the traced runs reproduced the untraced ones, and the layer
// self times fit inside the traced wall time.
func layers(out *output, rec *record, rp *trace.Replay) {
	l := rp.Layers
	out.Attempted += rp.Jobs
	out.Failed += len(rp.Mismatches)
	rec.Failures = append(rec.Failures, rp.Mismatches...)
	if l.Self() > rp.Traced {
		out.Failed++
		rec.Failures = append(rec.Failures, fmt.Sprintf("layer self times %v exceed the traced wall %v", l.Self(), rp.Traced))
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return stats.Ms(d) / float64(n)
	}
	count := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	c, r := l.Compiles, l.CM2Runs
	out.set("lexer.ms", "ms", per(l.Lex, c))
	out.set("lexer.tokens", "count", count(float64(l.Tokens), c))
	out.set("parser.ms", "ms", per(l.Parse, c))
	out.set("lower.ms", "ms", per(l.Lower, c))
	out.set("opt.ms", "ms", per(l.Opt, c))
	out.set("opt.fused_moves", "count", count(float64(l.FusedMoves), c))
	out.set("opt.hoisted_comms", "count", count(float64(l.HoistedComms), c))
	out.set("partition.ms", "ms", per(l.Partition, c))
	out.set("partition.node_routines", "count", count(float64(l.NodeRoutines), c))
	out.set("peac.instrs", "count", count(float64(l.PEACInstrs), c))
	rec.Bases["compile layers"] = fmt.Sprintf("per cold compile, %d in the replayed jobs", c)

	out.set("driver.compile_ms.miss", "ms", stats.Median(rp.CompileMissMs))
	out.set("driver.compile_us.hit", "us", 1000*stats.Median(rp.CompileHitMs))
	out.set("driver.run.alloc_mb", "MB", count(float64(rp.AllocBytes)/(1<<20), rp.Jobs))
	rec.Bases["driver.compile_*"] = fmt.Sprintf("medians of %d misses and %d hits", len(rp.CompileMissMs), len(rp.CompileHitMs))

	out.set("rt.store.ms", "ms", per(l.Store, r))
	out.set("rt.store.mb", "MB", count(float64(l.StoreBytes)/(1<<20), r))
	out.set("hostvm.self_ms", "ms", per(l.HostSelf, r))
	out.set("cm2.dispatch_ms", "ms", per(l.Dispatch, r))
	out.set("cm2.dispatches", "count", count(float64(l.Dispatches), r))
	nsPer := func(x float64) float64 {
		if x == 0 {
			return 0
		}
		return float64(l.Dispatch.Nanoseconds()) / x
	}
	out.set("cm2.ns_per_elem", "ns", nsPer(float64(l.DispatchElems)))
	out.set("cm2.ns_per_pe_cycle", "ns", nsPer(l.PECycles))
	out.set("rt.comm.grid_ms", "ms", per(l.Comm["grid"], r))
	out.set("rt.comm.router_ms", "ms", per(l.Comm["router"], r))
	out.set("rt.comm.reduce_ms", "ms", per(l.Comm["reduce"], r))
	out.set("rt.comm.calls", "count", count(float64(l.CommCalls), r))
	out.set("cm5.run_ms", "ms", per(l.CM5, l.CM5Runs))
	rec.Bases["exec layers"] = fmt.Sprintf("per CM/2 run, %d runs; cm5.run_ms per CM-5 run, %d runs; cm2.ns_per_pe_cycle over %.0f modeled PE cycles", r, l.CM5Runs, l.PECycles)

	out.set("rt.checkpoint.encode_ms", "ms", per(l.SpillEncode, l.Spills))
	out.set("rt.checkpoint.write_ms", "ms", per(l.SpillWrite, l.Spills))
	out.set("rt.checkpoint.kb", "KiB", count(float64(l.SpillBytes)/1024, l.Spills))
	rec.Bases["rt.checkpoint.*"] = fmt.Sprintf("per spill, %d spills every %d host boundaries", l.Spills, trace.SpillEvery)

	out.set("trace.overhead_ratio", "ratio", rp.Traced.Seconds()/rp.Untraced.Seconds())
	rec.Bases["trace.overhead_ratio"] = fmt.Sprintf("traced %v / untraced %v over %d jobs", rp.Traced, rp.Untraced, rp.Jobs)
}

func emit(rec *record, out *output) error {
	for _, v := range []any{rec, out} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

func freeze(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f jobs.Frozen
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if f.Modeled, err = jobs.Freeze(context.Background()); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
