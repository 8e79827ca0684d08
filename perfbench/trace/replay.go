package trace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/driver"
	"f90y/internal/fe"
	"f90y/internal/rt"
	"f90y/perfbench/jobs"
	"f90y/perfbench/stats"
)

// Replay is one traced replay of a job list: every job runs once
// untraced through driver.Service.Run and once through the traced
// composition, and the two must agree exactly.
type Replay struct {
	Layers *Layers
	// Jobs is the number of jobs replayed.
	Jobs int
	// Untraced and Traced sum the wall time of the two passes.
	Untraced, Traced time.Duration
	// RunMs is each job's untraced driver.Service.Run time.
	RunMs []float64
	// CompileMissMs and CompileHitMs time driver.Service.Compile on a
	// miss (cold jobs) and on a hit (every job, after its run).
	CompileMissMs, CompileHitMs []float64
	// AllocBytes sums the heap bytes each untraced run allocated.
	AllocBytes uint64
	// Mismatches lists jobs whose traced run differed from the untraced
	// one, or failed.
	Mismatches []string
}

// ReplayJobs replays list. Sources in warm are compiled before the
// replay on both sides, so list jobs that repeat them are cache hits
// and the rest compile, as on a warmed server. With spillDir set, CM/2
// runs on both sides spill checkpoints there at f90yd's cadence.
func ReplayJobs(ctx context.Context, warm, list []jobs.Job, spillDir string) (*Replay, error) {
	cfg := f90y.DefaultConfig()
	svc, probe := driver.New(1), driver.New(1)
	progs := map[string]*fe.Program{}
	scratch := New()
	for _, j := range warm {
		if _, ok := progs[j.Source]; ok {
			continue
		}
		for _, s := range []*driver.Service{svc, probe} {
			if _, err := s.Compile(ctx, j.File, j.Source, cfg); err != nil {
				return nil, fmt.Errorf("trace: warm %s: %w", j.Entry, err)
			}
		}
		prog, err := scratch.Compile(j.File, j.Source, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace: warm %s: %w", j.Entry, err)
		}
		progs[j.Source] = prog
	}

	rp := &Replay{Layers: New()}
	m2, m5 := cm2.Default(), cm5.Default()
	var ctl *cm2.Control
	if spillDir != "" {
		path := filepath.Join(spillDir, "untraced.ckpt")
		defer os.Remove(path)
		ctl = &cm2.Control{CheckpointEvery: SpillEvery, Checkpoint: func(ck *rt.Checkpoint) error {
			data, err := ck.Encode()
			if err != nil {
				return err
			}
			return rt.WriteFileAtomic(path, data)
		}}
	}
	var ms runtime.MemStats
	for i, j := range list {
		fail := func(format string, args ...any) {
			rp.Mismatches = append(rp.Mismatches, fmt.Sprintf("job %d (%s on %s): ", i, j.Entry, j.Target)+fmt.Sprintf(format, args...))
		}
		if _, hot := progs[j.Source]; !hot {
			t := time.Now()
			if _, err := probe.Compile(ctx, j.File, j.Source, cfg); err != nil {
				fail("compile: %v", err)
				continue
			}
			rp.CompileMissMs = append(rp.CompileMissMs, stats.Ms(time.Since(t)))
		}

		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		t := time.Now()
		rr := svc.Run(ctx, driver.Job{Name: j.Entry, File: j.File, Source: j.Source, Config: cfg, Target: j.Target, Ctl: ctl})
		d := time.Since(t)
		runtime.ReadMemStats(&ms)
		rp.AllocBytes += ms.TotalAlloc - alloc
		rp.Untraced += d
		rp.RunMs = append(rp.RunMs, stats.Ms(d))
		if rr.Err != nil {
			fail("untraced run: %v", rr.Err)
			continue
		}
		t = time.Now()
		if _, err := svc.Compile(ctx, j.File, j.Source, cfg); err != nil {
			fail("compile hit: %v", err)
			continue
		}
		rp.CompileHitMs = append(rp.CompileHitMs, stats.Ms(time.Since(t)))

		t = time.Now()
		prog, ok := progs[j.Source]
		if !ok {
			var err error
			if prog, err = rp.Layers.Compile(j.File, j.Source, cfg); err != nil {
				fail("traced compile: %v", err)
				continue
			}
			progs[j.Source] = prog
		}
		var got *Result
		var err error
		if j.Target == "cm5" {
			var r5 *cm5.Result
			if r5, err = rp.Layers.RunCM5(ctx, m5, prog, ctl); err == nil {
				got = resultOf(&r5.Result)
			}
		} else {
			got, err = rp.Layers.RunCM2(ctx, m2, prog, spillDir)
		}
		rp.Traced += time.Since(t)
		rp.Jobs++
		if err != nil {
			fail("traced run: %v", err)
			continue
		}
		if msg := Compare(resultOf(rr.Result()), got); msg != "" {
			fail("%s", msg)
		}
	}
	return rp, nil
}

func resultOf(r *cm2.Result) *Result {
	return &Result{Store: r.Store, Output: r.Output, HostCycles: r.HostCycles, PECycles: r.PECycles,
		CommCycles: r.CommCycles, Flops: r.Flops, NodeCalls: r.NodeCalls, CommCalls: r.CommCalls}
}

// Compare reports how a traced run differs from the untraced one: the
// final store bit for bit, then every modeled statistic exactly.
func Compare(want, got *Result) string {
	if err := jobs.SameStore(want.Store, got.Store); err != nil {
		return "final store: " + err.Error()
	}
	w := jobs.Modeled{HostCycles: want.HostCycles, PECycles: want.PECycles, CommCycles: want.CommCycles,
		Flops: want.Flops, NodeCalls: want.NodeCalls, CommCalls: want.CommCalls, Output: want.Output}
	g := jobs.Modeled{HostCycles: got.HostCycles, PECycles: got.PECycles, CommCycles: got.CommCycles,
		Flops: got.Flops, NodeCalls: got.NodeCalls, CommCalls: got.CommCalls, Output: got.Output}
	if msg := jobs.Mismatch(w, g); msg != "" {
		return "modeled " + msg
	}
	return ""
}
