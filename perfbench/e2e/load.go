package e2e

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"f90y/perfbench/jobs"
	"f90y/perfbench/stats"
)

// Tally counts one phase's outcomes. Every failure counts; the first
// few are kept verbatim for the record.
type Tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// ColdHits and HotMisses count jobs the server's compile cache
	// treated otherwise than the stream intended: a cold program that
	// was already cached, or a warmed one that was not.
	ColdHits  int `json:"cold_hits"`
	HotMisses int `json:"hot_misses"`
}

func (t *Tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Errors) < 5 {
		t.Errors = append(t.Errors, fmt.Sprintf(format, args...))
	}
}

func (t *Tally) add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.ColdHits += o.ColdHits
	t.HotMisses += o.HotMisses
	for _, e := range o.Errors {
		if len(t.Errors) < 5 {
			t.Errors = append(t.Errors, e)
		}
	}
}

// Phase is one measured phase of a workload.
type Phase struct {
	Name string `json:"name"`
	Tally
	// LatencyMs holds each successful job's latency: from its due time
	// in an open loop, from its send in a closed loop.
	LatencyMs []float64 `json:"-"`
	// LateMs holds, per open-loop job, how late the generator handed it
	// to a connection.
	LateMs []float64 `json:"-"`
	// Wall is the phase's duration up to its last completion.
	Wall time.Duration `json:"wall_ns"`
	// Backlog growth: the mean number of due-but-unfinished jobs over
	// the first and the last quarter of the open-loop schedule (the
	// largest of each over the rounds).
	BacklogFirst float64 `json:"backlog_first_quarter,omitempty"`
	BacklogLast  float64 `json:"backlog_last_quarter,omitempty"`
}

// Rounds is how many times each workload cycles through its phases.
// Interleaving the phases spreads each one over the whole run, so slow
// drift in the machine's speed moves every phase alike instead of
// landing on whichever phase ran during it.
const Rounds = 3

// merge adds another round of the same phase.
func (p *Phase) merge(q *Phase) {
	p.Tally.add(q.Tally)
	p.LatencyMs = append(p.LatencyMs, q.LatencyMs...)
	p.LateMs = append(p.LateMs, q.LateMs...)
	p.Wall += q.Wall
	p.BacklogFirst = math.Max(p.BacklogFirst, q.BacklogFirst)
	p.BacklogLast = math.Max(p.BacklogLast, q.BacklogLast)
}

// PerSecond is the phase's completed jobs per second of wall time.
func (p *Phase) PerSecond() float64 {
	return float64(p.Attempted-p.Failed) / p.Wall.Seconds()
}

// Limits for accepting an open-loop phase as a measurement at its
// offered rate.
const (
	// The generator may be late by at most maxLateP50Ms on the median
	// send, and maxLateTailMs on the tail one: beyond these it did not
	// offer the phase's rate. Short stalls of the whole machine below
	// the tail limit are not rejected; they are counted in the latency
	// of the jobs they delay, which is timed from their due times.
	maxLateP50Ms  = 1.0
	maxLateTailMs = 100.0
	// backlogSlack is how many jobs per connection the mean backlog of
	// the last quarter may exceed the first quarter's by.
	backlogSlack = 2.0
)

// Valid rejects an open-loop phase whose backlog grew or whose
// generator ran late: its latencies would describe an overloaded
// system or a stalled client, not the offered rate.
func (p *Phase) Valid(conns int) error {
	if late := stats.Summarize(p.LateMs); late.P50 > maxLateP50Ms || late.Tail > maxLateTailMs {
		return fmt.Errorf("phase %s: generator ran late: %.2f ms at p50, %.1f ms at p%.1f (limits %.0f and %.0f ms)",
			p.Name, late.P50, late.Tail, late.TailPct, maxLateP50Ms, maxLateTailMs)
	}
	if p.BacklogLast > p.BacklogFirst+backlogSlack*float64(conns) {
		return fmt.Errorf("phase %s: backlog grew from %.1f to %.1f jobs", p.Name, p.BacklogFirst, p.BacklogLast)
	}
	return nil
}

// Runner executes one job; the phase times that call alone. The check
// it returns runs afterwards, untimed: it verifies the outcome (a
// non-nil error fails the job) and reports whether the program was
// served a cached compile.
type Runner func(ctx context.Context, j jobs.Job) (check func() (hit bool, err error))

// OpenLoop sends list at its due times over conns connections and
// times each job from when it was due. The generator never waits for a
// connection: due jobs queue for the next free one, so a stall shows up
// as latency of the jobs behind it.
func OpenLoop(ctx context.Context, name string, list []jobs.Job, conns int, run Runner) *Phase {
	p := &Phase{Name: name}
	type item struct {
		j   jobs.Job
		due time.Time
	}
	// Buffered for the whole phase, so handing a job over never blocks.
	queue := make(chan item, len(list))
	var mu sync.Mutex
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				check := run(ctx, it.j)
				end := time.Now()
				done.Add(1)
				o := tally(it.j, check)
				mu.Lock()
				p.Tally.add(o)
				if o.Failed == 0 {
					p.LatencyMs = append(p.LatencyMs, stats.Ms(end.Sub(it.due)))
				}
				mu.Unlock()
			}
		}()
	}
	// The Go timer wakes sleepers with millisecond granularity, which
	// would make the generator up to a millisecond late on every send;
	// a nanosleep on a dedicated thread keeps it within microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	backlog := make([]float64, len(list))
	for i, j := range list {
		due := start.Add(j.Due)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		p.LateMs = append(p.LateMs, stats.Ms(time.Since(due)))
		backlog[i] = float64(int64(i) - done.Load())
		queue <- item{j, due}
	}
	close(queue)
	wg.Wait()
	p.Wall = time.Since(start)
	q := len(backlog) / 4
	if q > 0 {
		p.BacklogFirst = mean(backlog[:q])
		p.BacklogLast = mean(backlog[len(backlog)-q:])
	}
	return p
}

// ClosedLoop runs clients that each send the next job of list as soon
// as their previous one returns, until dur has passed. It fails if list
// runs out first.
func ClosedLoop(ctx context.Context, name string, list []jobs.Job, clients int, dur time.Duration, run Runner) (*Phase, error) {
	p := &Phase{Name: name}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var exhausted atomic.Bool
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(list)) {
					exhausted.Store(true)
					return
				}
				t := time.Now()
				check := run(ctx, list[i])
				d := time.Since(t)
				o := tally(list[i], check)
				mu.Lock()
				p.Tally.add(o)
				if o.Failed == 0 {
					p.LatencyMs = append(p.LatencyMs, stats.Ms(d))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.Wall = time.Since(start)
	if exhausted.Load() {
		return p, fmt.Errorf("phase %s: all %d pre-generated jobs ran before %v passed", name, len(list), dur)
	}
	return p, nil
}

func tally(j jobs.Job, check func() (bool, error)) Tally {
	o := Tally{Attempted: 1}
	hit, err := check()
	if err != nil {
		o.fail("%s on %s: %v", j.Entry, j.Target, err)
		return o
	}
	if j.Cold && hit {
		o.ColdHits++
	}
	if !j.Cold && !hit {
		o.HotMisses++
	}
	return o
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
