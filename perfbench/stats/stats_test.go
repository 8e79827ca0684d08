package stats

import "testing"

// ranked returns n distinct samples in reverse order, so Summarize must
// sort them.
func ranked(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailHasAtLeastTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 39, 40, 99, 100, 199, 200, 1234} {
		xs := ranked(n)
		s := Summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < Beyond {
			t.Errorf("n=%d: %d samples beyond the p%v tail, want at least %d", n, beyond, s.TailPct, Beyond)
		}
		// The next ladder step must not qualify.
		for _, p := range Ladder {
			if p > s.TailPct {
				if r := rank(n, p); n-1-r >= Beyond {
					t.Errorf("n=%d: p%v also has ten beyond, but the tail is p%v", n, p, s.TailPct)
				}
				break
			}
		}
	}
}

func TestTailLadder(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		tail float64
		p50  float64
	}{
		{20, 50, 10, 10},
		{40, 75, 30, 20},
		{100, 90, 90, 50},
		{199, 90, 180, 100},
		{200, 90, 180, 100},
		{10000, 90, 9000, 5000},
	} {
		s := Summarize(ranked(c.n))
		if s.TailPct != c.pct || s.Tail != c.tail || s.P50 != c.p50 {
			t.Errorf("n=%d: got p50=%v tail=%v at p%v, want p50=%v tail=%v at p%v", c.n, s.P50, s.Tail, s.TailPct, c.p50, c.tail, c.pct)
		}
	}
}

func TestNoTailWithFewSamples(t *testing.T) {
	s := Summarize(ranked(19))
	if s.Tail != 0 || s.TailPct != 0 {
		t.Fatalf("19 samples gave a tail %+v; not even the median has ten beyond it", s)
	}
	if s.P50 != 10 {
		t.Fatalf("median of 1..19 = %v, want 10", s.P50)
	}
}
