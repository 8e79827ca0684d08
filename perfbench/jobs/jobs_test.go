package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"f90y"
	"f90y/internal/driver"
)

func plan(seed int64) []byte {
	g := NewGen(seed)
	p := [][]Job{g.OpenLoop(100, 2*time.Second), g.OpenLoop(200, time.Second), g.ClosedLoop(300)}
	b, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := plan(7), plan(7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced two different job streams")
	}
	if bytes.Equal(a, plan(8)) {
		t.Fatal("seeds 7 and 8 produced the same job stream")
	}
}

func TestStreamMix(t *testing.T) {
	g := NewGen(1)
	decks := len(Catalog()) * targetSlots * coldSlots
	js := g.ClosedLoop(3 * decks)
	seen := map[string]bool{}
	cold, cm5 := 0, 0
	for _, j := range js {
		if j.Cold {
			cold++
			if seen[j.Source] {
				t.Fatalf("cold job %s repeats a source", j.Entry)
			}
			seen[j.Source] = true
		}
		if j.Target == "cm5" {
			cm5++
		}
	}
	// Whole decks hold the designed shares exactly, and every catalog
	// entry comes once per len(Catalog()) jobs.
	for i := 0; i+len(Catalog()) <= len(js); i += len(Catalog()) {
		seen := map[string]bool{}
		for _, j := range js[i : i+len(Catalog())] {
			seen[j.Entry] = true
		}
		if len(seen) != len(Catalog()) {
			t.Fatalf("jobs %d.. cover %d catalog entries, want all %d", i, len(seen), len(Catalog()))
		}
	}
	if c := float64(cold) / float64(len(js)); c != ColdShare {
		t.Errorf("cold share %v, want %v", c, ColdShare)
	}
	if c := float64(cm5) / float64(len(js)); c != CM5Share {
		t.Errorf("cm5 share %v, want %v", c, CM5Share)
	}
	arr := g.OpenLoop(500, 4*time.Second)
	if n := len(arr); n != 2000 {
		t.Errorf("open loop at 500/s for 4s drew %d jobs", n)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].Due < arr[i-1].Due {
			t.Fatal("open-loop due times go backwards")
		}
	}
}

// Every catalog program, and its renamed cold variant, must reproduce
// the frozen modeled results on both targets.
func TestCatalogMatchesFrozen(t *testing.T) {
	f, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	svc := driver.New(1)
	for _, e := range Catalog() {
		for _, target := range []string{"cm2", "cm5"} {
			want, ok := f.Modeled[ResultKey(e.ID, target)]
			if !ok {
				t.Fatalf("%s on %s: no frozen results", e.ID, target)
			}
			for _, src := range []string{e.Source, e.Variant("_k9")} {
				rr := svc.Run(ctx, driver.Job{File: e.File(), Source: src, Config: f90y.DefaultConfig(), Target: target})
				if rr.Err != nil {
					t.Fatalf("%s on %s: %v", e.ID, target, rr.Err)
				}
				if msg := Mismatch(want, ModeledOf(rr.Result())); msg != "" {
					t.Errorf("%s on %s: %s", e.ID, target, msg)
				}
			}
		}
	}
}
