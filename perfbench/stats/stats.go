// Package stats holds the benchmark's order statistics: the median and
// the tail, where the tail is the highest percentile of a fixed ladder
// that still has at least ten samples beyond it.
package stats

import (
	"math"
	"sort"
	"time"
)

// Beyond is the number of samples that must lie above the tail value.
const Beyond = 10

// Ladder lists the percentiles a tail may be reported at. A fixed
// ladder keeps the tail's meaning stable between runs whose sample
// counts differ a little. It stops at p90: on a small shared machine
// the rarer percentiles time the host's scheduling hiccups, which move
// between runs of the same code by more than any useful bound. On a
// 2-vCPU VM, over six runs of serve-mix, the p95 latency at 400 jobs/s
// spread 0.10 (quartile distance over median) where the p90 spread
// 0.06; over ten runs in a noisier hour the p95 spread 0.29.
var Ladder = []float64{50, 75, 90}

// Summary describes one latency sample set.
type Summary struct {
	N int `json:"n"`
	// P50 is the median (nearest rank).
	P50 float64 `json:"p50"`
	// Tail is the nearest-rank value at TailPct, the highest Ladder
	// percentile with at least Beyond samples ranked above it.
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// Summarize sorts a copy of xs and returns its median and tail. When
// not even the median has Beyond samples above it there is no tail:
// Tail and TailPct are 0.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = s[rank(len(s), 50)]
	for _, p := range Ladder {
		if r := rank(len(s), p); len(s)-1-r >= Beyond {
			out.Tail, out.TailPct = s[r], p
		}
	}
	return out
}

// rank is the zero-based nearest-rank index of percentile p in n
// sorted samples. The epsilon absorbs binary rounding of p*n/100, so
// p99.9 of 10000 samples is rank 9990, not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// Median is the nearest-rank median of xs (0 for no samples).
func Median(xs []float64) float64 { return Summarize(xs).P50 }

// Ms converts a duration to fractional milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
