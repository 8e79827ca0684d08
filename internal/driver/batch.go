package driver

import (
	"context"
	"fmt"
	"sync"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/obs"
	"f90y/internal/obs/profile"
	"f90y/internal/rt"
)

// Job is one compile+run request. Config.Obs is the job's private
// telemetry recorder: it receives the exec span and cycle attribution
// for this run, plus compile spans when this job is the one that
// populates the cache entry (a cache hit records no compile phases).
type Job struct {
	// Name labels the job in results and telemetry.
	Name string
	// File and Source are the program to compile.
	File   string
	Source string
	// Config selects the optimization levels, the CM/2 machine (for
	// the cm2 target), and the per-job recorder.
	Config f90y.Config
	// Target is "cm2" (the default when empty) or "cm5".
	Target string
	// CM5 overrides the CM-5 configuration for the cm5 target; nil
	// means cm5.Default().
	CM5 *cm5.Machine
	// Ctl optionally attaches an execution control plane (fault
	// injection, checkpoints, resume).
	Ctl *cm2.Control
}

// RunResult is one job's outcome. Exactly one of CM2/CM5 is set on
// success, matching the job's target.
type RunResult struct {
	Job      Job
	Artifact *Artifact
	CM2      *cm2.Result
	CM5      *cm5.Result
	Err      error
}

// Result returns the target-independent execution result (the CM-5
// result embeds the common form); nil when the job failed.
func (r *RunResult) Result() *cm2.Result {
	if r.CM5 != nil {
		return &r.CM5.Result
	}
	return r.CM2
}

// Profile builds the job's source-line cycle profile from the result's
// attribution — the PE attribution overlaid with the communication
// network's (router and NEWS cycles appear under the rt.CommRoutine
// pseudo-routine with their own "grid"/"router"/"reduce" classes) —
// with the job's own source attached for the annotated view. Nil when
// the job failed or its target recorded no attribution.
func (r *RunResult) Profile() *profile.Profile {
	res := r.Result()
	if res == nil || (len(res.PELineCycles) == 0 && len(res.CommLineCycles) == 0) {
		return nil
	}
	lines := rt.MergeLineMaps(res.PELineCycles, res.CommLineCycles)
	return profile.New(lines, map[string]string{r.Job.File: r.Job.Source})
}

// Run compiles (through the cache) and executes one job under ctx.
func (s *Service) Run(ctx context.Context, job Job) RunResult {
	res := RunResult{Job: job}
	art, err := s.Compile(ctx, job.File, job.Source, job.Config)
	if err != nil {
		res.Err = err
		return res
	}
	res.Artifact = art
	rec := job.Config.Obs
	span := obs.Start(rec, "exec")
	defer span.End()
	ctl := job.Ctl
	// Service-wide defaults (watchdog budget, executor sharding) apply
	// to jobs that don't set their own, cloning the control plane first
	// — the job's Control may be shared across jobs.
	clone := func() *cm2.Control {
		var c cm2.Control
		if ctl != nil {
			c = *ctl
		}
		return &c
	}
	if s.MaxCycles > 0 && (ctl == nil || ctl.MaxCycles == 0) {
		c := clone()
		c.MaxCycles = s.MaxCycles
		ctl = c
	}
	if s.ExecWorkers != 0 && (ctl == nil || ctl.ExecWorkers == 0) {
		c := clone()
		c.ExecWorkers = s.ExecWorkers
		ctl = c
	}
	switch job.Target {
	case "", "cm2":
		m := job.Config.Machine
		if m == nil {
			m = cm2.Default()
		}
		res.CM2, res.Err = m.RunCtx(ctx, art.Comp.Program, nil, rec, ctl)
	case "cm5":
		m := job.CM5
		if m == nil {
			m = cm5.Default()
		}
		res.CM5, res.Err = m.RunCtx(ctx, art.Comp.Program, rec, ctl)
	default:
		res.Err = fmt.Errorf("driver: job %s: unknown target %q", job.Name, job.Target)
	}
	return res
}

// RunBatch executes the jobs on a worker pool bounded at the service's
// worker count, returning results indexed exactly like jobs. Each job's
// cycle totals, GFLOPS, and output are independent of the worker count
// and of which goroutine ran it; only wall-clock changes. Shared
// (source, config) pairs compile once through the cache — concurrent
// duplicates wait for the in-flight compile rather than re-running it.
func (s *Service) RunBatch(ctx context.Context, jobs []Job) []RunResult {
	out := make([]RunResult, len(jobs))
	n := s.workers
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		for i := range jobs {
			out[i] = s.Run(ctx, jobs[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = s.Run(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
