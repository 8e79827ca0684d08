// Package e2e is the benchmark's end-to-end runner. It reaches the
// program only through driver.Service and f90yd's HTTP API, with the
// program's defaults, so refactors behind those surfaces need no change
// here.
package e2e

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"f90y/internal/driver"
	"f90y/perfbench/jobs"
)

// ServeConfig sets up one serve workload run.
type ServeConfig struct {
	// Bin is the f90yd binary; Dir holds the servers' files.
	Bin, Dir string
	// Durable runs f90yd with -state-dir under Dir.
	Durable bool
	Seed    int64
	// Seconds is the measured time, split across the three phases.
	Seconds float64
	// Conns bounds the client's connections and the saturation phase's
	// clients.
	Conns int
	Rates jobs.Rates
	// SetupReps is how many times set-up runs; the last server is the
	// one measured.
	SetupReps int
	Frozen    map[string]jobs.Modeled
}

// Shares of the measured time per phase, summed over the rounds.
const lowShare, highShare, satShare = 0.45, 0.35, 0.2

// ServeResult is one serve workload run.
type ServeResult struct {
	SetupS []float64
	// Reference counts the in-process checks of every catalog program
	// against the interpreter and the frozen modeled results.
	Reference      Tally
	Low, High, Sat *Phase
	PeakRSSMB      float64
	Before, After  Statsz
	// LowJobs is the low phase's job list, for the traced replay.
	LowJobs []jobs.Job
}

// Serve runs a serve workload: the job stream is drawn before anything
// is timed, every catalog program is checked in process, then f90yd is
// set up (started and warmed with every catalog program) SetupReps
// times, and the last instance serves, Rounds times over, an open-loop
// phase at the low rate, one at the high rate, and a closed-loop
// saturation phase.
func Serve(ctx context.Context, cfg ServeConfig) (*ServeResult, error) {
	secs := func(share float64) time.Duration {
		return time.Duration(share * cfg.Seconds / Rounds * float64(time.Second))
	}
	g := jobs.NewGen(cfg.Seed)
	res := &ServeResult{}
	var lows, highs, sats [Rounds][]jobs.Job
	for r := range lows {
		lows[r] = g.OpenLoop(cfg.Rates.Low, secs(lowShare))
		highs[r] = g.OpenLoop(cfg.Rates.High, secs(highShare))
		// A closed loop cannot know its length ahead; ten times the
		// high rate leaves room for a large capacity gain.
		sats[r] = g.ClosedLoop(int(10*cfg.Rates.High*secs(satShare).Seconds()) + 100)
		res.LowJobs = append(res.LowJobs, lows[r]...)
	}

	res.Reference = reference(ctx, cfg.Frozen)

	var srv *Server
	for i := 0; i < cfg.SetupReps; i++ {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("server%d", i))
		t := time.Now()
		s, err := StartServer(ctx, cfg.Bin, dir, cfg.Durable, cfg.Conns)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs.Warmup() {
			m, _, err := s.Run(ctx, j)
			if err := checkReply(cfg.Frozen[j.Key()], m, err); err != nil {
				s.Stop()
				return nil, fmt.Errorf("set-up: %s on %s: %w", j.Entry, j.Target, err)
			}
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		if i == cfg.SetupReps-1 {
			srv = s
			break
		}
		if err := s.Stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Stop()
		}
	}()

	run := func(ctx context.Context, j jobs.Job) func() (bool, error) {
		m, hit, err := srv.Run(ctx, j)
		return func() (bool, error) {
			return hit, checkReply(cfg.Frozen[j.Key()], m, err)
		}
	}
	var err error
	if res.Before, err = srv.Statsz(ctx); err != nil {
		return nil, err
	}
	res.Low, res.High, res.Sat = &Phase{Name: "low"}, &Phase{Name: "high"}, &Phase{Name: "sat"}
	for r := 0; r < Rounds; r++ {
		for _, ph := range []struct {
			into *Phase
			list []jobs.Job
		}{{res.Low, lows[r]}, {res.High, highs[r]}} {
			p := OpenLoop(ctx, ph.into.Name, ph.list, cfg.Conns, run)
			if err := p.Valid(cfg.Conns); err != nil {
				return nil, fmt.Errorf("round %d: %w", r+1, err)
			}
			ph.into.merge(p)
		}
		p, err := ClosedLoop(ctx, "sat", sats[r], cfg.Conns, secs(satShare), run)
		if err != nil {
			return nil, err
		}
		res.Sat.merge(p)
	}
	// f90yd replies to a run before counting it completed: wait until
	// every admitted job is counted.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if res.After, err = srv.Statsz(ctx); err != nil {
			return nil, err
		}
		if res.After.Jobs.Completed == res.After.Jobs.Admitted || time.Now().After(deadline) {
			break
		}
	}
	if res.PeakRSSMB, err = srv.PeakRSSMB(); err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.Stop(); err != nil {
		return nil, fmt.Errorf("f90yd shutdown: %w", err)
	}
	return res, nil
}

// checkReply checks a server reply against the frozen modeled results
// of its program.
func checkReply(want, got jobs.Modeled, err error) error {
	if err != nil {
		return err
	}
	if msg := jobs.Mismatch(want.Totals(), got); msg != "" {
		return fmt.Errorf("modeled %s", msg)
	}
	return nil
}

// reference checks every catalog program in process on both targets:
// values against the interpreter, modeled results against the frozen
// record. Each program counts as one attempt.
func reference(ctx context.Context, frozen map[string]jobs.Modeled) Tally {
	var t Tally
	svc := driver.New(1)
	for _, e := range jobs.Catalog() {
		t.Attempted++
		if err := checkFrozen(ctx, svc, e, frozen, "cm2", "cm5"); err != nil {
			t.fail("%v", err)
		}
	}
	return t
}

func checkFrozen(ctx context.Context, svc *driver.Service, e jobs.Entry, frozen map[string]jobs.Modeled, targets ...string) error {
	res, err := jobs.Reference(ctx, svc, e, targets...)
	if err != nil {
		return err
	}
	for _, t := range targets {
		want, ok := frozen[jobs.ResultKey(e.ID, t)]
		if !ok {
			return fmt.Errorf("%s on %s: no frozen results", e.ID, t)
		}
		if msg := jobs.Mismatch(want, jobs.ModeledOf(res[t])); msg != "" {
			return fmt.Errorf("%s on %s: modeled %s", e.ID, t, msg)
		}
	}
	return nil
}
