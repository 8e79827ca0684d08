package jobs

import (
	"fmt"
	"math/rand"
	"time"
)

// Mix shares of the serve job stream.
const (
	// ColdShare is the fraction of jobs that submit a never-seen
	// program (a renamed catalog entry), so the server compiles it.
	ColdShare = 1.0 / coldSlots
	// CM5Share is the fraction of jobs that target the CM-5.
	CM5Share = 1.0 / targetSlots
)

// Job is one request of a serve stream.
type Job struct {
	Entry  string `json:"entry"`
	Target string `json:"target"`
	Cold   bool   `json:"cold,omitempty"`
	File   string `json:"file"`
	Source string `json:"source"`
	// Due is when an open-loop generator sends the job, relative to the
	// start of its phase; zero in closed-loop phases.
	Due time.Duration `json:"due,omitempty"`
}

// Key names the frozen results the job must reproduce.
func (j Job) Key() string { return ResultKey(j.Entry, j.Target) }

// ResultKey is the frozen-results key of a catalog entry on a target.
func ResultKey(entry, target string) string { return entry + "@" + target }

// Gen draws a serve stream from the catalog. It deals each job's
// program, target and cache slot from three shuffled decks: the
// catalog (every entry once), four target slots (one CM-5) and five
// cache slots (one cold). Every stretch of a few dozen jobs therefore
// has close to the designed composition for every seed, and the seed
// only changes which program comes when.
type Gen struct {
	r                    *rand.Rand
	cat                  []Entry
	entries, cm5s, colds []int
	nCold                int
}

// Deck sizes: one CM-5 slot in targetSlots and one cold slot in
// coldSlots, matching CM5Share and ColdShare.
const targetSlots, coldSlots = 4, 5

// NewGen returns the generator for seed.
func NewGen(seed int64) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed)), cat: Catalog()}
}

// deal returns the next card of a deck of n cards 0..n-1, reshuffling
// a fresh deck when it runs out. Card 0 marks the special slot.
func (g *Gen) deal(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = g.r.Perm(n)
	}
	c := (*deck)[0]
	*deck = (*deck)[1:]
	return c
}

// Next draws one job.
func (g *Gen) Next() Job {
	e := g.cat[g.deal(&g.entries, len(g.cat))]
	j := Job{Entry: e.ID, Target: "cm2", File: e.File(), Source: e.Source}
	if g.deal(&g.cm5s, targetSlots) == 0 {
		j.Target = "cm5"
	}
	if g.deal(&g.colds, coldSlots) == 0 {
		g.nCold++
		j.Cold = true
		j.Source = e.Variant(fmt.Sprintf("_k%d", g.nCold))
	}
	return j
}

// OpenLoop draws the jobs of an open-loop phase: evenly spaced sends
// at rate jobs per second for dur. Even spacing, rather than Poisson
// arrivals, keeps the arrival pattern identical across seeds, so run to
// run differences in latency come from the system and the job mix.
func (g *Gen) OpenLoop(rate float64, dur time.Duration) []Job {
	n := int(rate * dur.Seconds())
	out := make([]Job, n)
	for i := range out {
		out[i] = g.Next()
		out[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// ClosedLoop draws n jobs for a closed-loop phase.
func (g *Gen) ClosedLoop(n int) []Job {
	out := make([]Job, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Warmup lists one hot job per catalog entry and target: set-up runs
// them so every stream job that is not cold is a compile-cache hit.
func Warmup() []Job {
	var out []Job
	for _, e := range Catalog() {
		for _, t := range []string{"cm2", "cm5"} {
			out = append(out, Job{Entry: e.ID, Target: t, File: e.File(), Source: e.Source})
		}
	}
	return out
}
