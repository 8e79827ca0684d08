package e2e

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"f90y"
	"f90y/internal/driver"
	"f90y/internal/rt"
	"f90y/perfbench/jobs"
	"f90y/perfbench/stats"
)

// BatchConfig sets up one swe-512 run.
type BatchConfig struct {
	// Seconds is the measured time, split between the phases.
	Seconds float64
	// Clients is how many runs the high phase starts at once.
	Clients   int
	SetupReps int
	Frozen    map[string]jobs.Modeled
}

// batchLowShare is the one-client phase's share of the measured time.
// With the two phases at 0.6 and 0.4 of a 36-second run on a 2-CPU
// machine, both collect 55 to 90 runs, between the ladder steps at 40
// and 100 samples, so run-to-run speed changes do not move their tail
// to another percentile.
const batchLowShare = 0.6

// BatchResult is one swe-512 run.
type BatchResult struct {
	SetupS []float64
	// Reference is the check of the set-up run against the interpreter
	// and the frozen modeled results.
	Reference Tally
	// Low is one client in a closed loop; High is Clients runs at a
	// time in lockstep.
	Low, High *Phase
	// PeakRSSMB is the mean over the rounds of this process's peak
	// resident set during the one-client phase: the memory one stream
	// of SWE runs needs. Where the Go heap peaks depends on when its
	// collections fall, so one reading lands on one of two levels about
	// ten per cent apart; with two runs at once it spread from 400 to
	// 620 MiB.
	PeakRSSMB      float64
	RoundPeakRSSMB []float64
	// Hits and Lookups count compile-cache outcomes over both phases.
	Hits, Lookups int64
	// Job is the driver job every run submits.
	Job jobs.Job
}

// Batch runs swe-512: set-up builds a driver.Service, compiles SWE at
// n=512 through it and runs it once, SetupReps times; the set-up run is
// checked against the interpreter and the frozen record; then the last
// service runs the program back to back, first from one client and
// then Clients runs at a time. Every run's final store must equal the
// checked one bit for bit. The phases alternate, Rounds times over.
func Batch(ctx context.Context, cfg BatchConfig) (*BatchResult, error) {
	e := jobs.SWE512()
	res := &BatchResult{Job: jobs.Job{Entry: e.ID, Target: "cm2", File: e.File(), Source: e.Source}}
	job := driver.Job{Name: e.ID, File: e.File(), Source: e.Source, Config: f90y.DefaultConfig()}
	var svc *driver.Service
	for i := 0; i < cfg.SetupReps; i++ {
		t := time.Now()
		svc = driver.New(0)
		if rr := svc.Run(ctx, job); rr.Err != nil {
			return nil, fmt.Errorf("set-up: %w", rr.Err)
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
	}

	res.Reference.Attempted = 1
	var want *rt.Store
	if err := func() error {
		ref, err := jobs.Reference(ctx, svc, e, "cm2")
		if err != nil {
			return err
		}
		want = ref["cm2"].Store
		if msg := jobs.Mismatch(cfg.Frozen[res.Job.Key()], jobs.ModeledOf(ref["cm2"])); msg != "" {
			return fmt.Errorf("modeled %s", msg)
		}
		return nil
	}(); err != nil {
		res.Reference.fail("%s: %v", e.ID, err)
	}

	run := func(ctx context.Context, j jobs.Job) func() (bool, error) {
		rr := svc.Run(ctx, job)
		return func() (bool, error) {
			if rr.Err != nil {
				return false, rr.Err
			}
			if msg := jobs.Mismatch(cfg.Frozen[j.Key()], jobs.ModeledOf(rr.CM2)); msg != "" {
				return false, fmt.Errorf("modeled %s", msg)
			}
			if want == nil {
				return false, fmt.Errorf("no checked reference store")
			}
			return true, jobs.SameStore(want, rr.CM2.Store)
		}
	}
	// Enough runs for a 100x speed-up; each list entry is the same job.
	list := make([]jobs.Job, int(100*cfg.Seconds)+10)
	for i := range list {
		list[i] = res.Job
	}
	h0, m0 := svc.CacheStats()
	res.Low, res.High = &Phase{Name: "low"}, &Phase{Name: "high"}
	slice := func(share float64) time.Duration {
		return time.Duration(share * cfg.Seconds / Rounds * float64(time.Second))
	}
	for r := 0; r < Rounds; r++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p, err := ClosedLoop(ctx, "low", list, 1, slice(batchLowShare), run)
		if err != nil {
			return nil, err
		}
		res.Low.merge(p)
		peak, err := PeakRSSMB(strconv.Itoa(os.Getpid()))
		if err != nil {
			return nil, err
		}
		res.RoundPeakRSSMB = append(res.RoundPeakRSSMB, peak)
		res.High.merge(Lockstep(ctx, "high", res.Job, cfg.Clients, slice(1-batchLowShare), run))
	}
	h1, m1 := svc.CacheStats()
	res.Hits, res.Lookups = h1-h0, h1-h0+m1-m0
	res.PeakRSSMB = mean(res.RoundPeakRSSMB)
	return res, nil
}

// resetPeakRSS returns freed heap to the OS and resets this process's
// VmHWM to its current RSS, so the peak covers one phase only, not the
// interpreter reference computed before it or an earlier phase.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// Lockstep runs clients copies of j at once, waits for all of them,
// and repeats until dur has passed, timing each run on its own. Runs
// that start together overlap the same way every time; free-running
// clients drift against each other, so how their memory-heavy stretches
// coincide wanders slowly and moves whole runs' medians. On a 2-vCPU
// VM the two-client median spread 0.15 to 0.23 (quartile distance over
// median, ten runs) with free-running clients and 0.13 in lockstep.
func Lockstep(ctx context.Context, name string, j jobs.Job, clients int, dur time.Duration, run Runner) *Phase {
	p := &Phase{Name: name}
	ms := make([]float64, clients)
	checks := make([]func() (bool, error), clients)
	start := time.Now()
	for time.Since(start) < dur {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t := time.Now()
				checks[c] = run(ctx, j)
				ms[c] = stats.Ms(time.Since(t))
			}(c)
		}
		wg.Wait()
		for c, check := range checks {
			o := tally(j, check)
			p.Tally.add(o)
			if o.Failed == 0 {
				p.LatencyMs = append(p.LatencyMs, ms[c])
			}
		}
	}
	p.Wall = time.Since(start)
	return p
}
