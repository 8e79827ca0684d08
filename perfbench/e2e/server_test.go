package e2e

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"f90y/internal/server"
	"f90y/perfbench/jobs"
)

// The benchmark's client and /statsz parser against a real f90yd
// handler, stateless and durable.
func TestStatszAndRunAgainstServer(t *testing.T) {
	frozen, err := jobs.Load()
	if err != nil {
		t.Fatal(err)
	}
	e := jobs.Catalog()[0]
	j := jobs.Job{Entry: e.ID, Target: "cm2", File: e.File(), Source: e.Source}
	for _, stateDir := range []string{"", t.TempDir()} {
		srv, err := server.New(server.Config{StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		s := &Server{base: ts.URL, client: ts.Client()}
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			m, hit, err := s.Run(ctx, j)
			if err := checkReply(frozen.Modeled[j.Key()], m, err); err != nil {
				t.Fatalf("state dir %q: run %d: %v", stateDir, i, err)
			}
			if hit != (i == 1) {
				t.Errorf("state dir %q: run %d reported cached=%v", stateDir, i, hit)
			}
		}
		// f90yd answers a synchronous run before it counts the job as
		// completed, so the counter may trail the last reply briefly.
		var st Statsz
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if st, err = s.Statsz(ctx); err != nil {
				t.Fatal(err)
			}
			if st.Jobs.Completed == 2 || time.Now().After(deadline) {
				break
			}
		}
		ts.Close()
		srv.Close()
		if st.Jobs.Completed != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
			t.Errorf("state dir %q: statsz %+v", stateDir, st)
		}
		if durable := st.Durability != nil; durable != (stateDir != "") {
			t.Fatalf("state dir %q: durability section present=%v", stateDir, durable)
		}
		if st.Durability != nil && (st.Durability.JournalRecords == 0 || st.Durability.DiskCache.Writes != 1) {
			t.Errorf("durable statsz: %+v", *st.Durability)
		}
	}
}

func TestParseStatszRejectsOtherSchemas(t *testing.T) {
	if _, err := ParseStatsz([]byte(`{"schema":"f90y-statsz/v2"}`)); err == nil {
		t.Fatal("accepted a v2 snapshot")
	}
	if _, err := ParseStatsz([]byte(`not json`)); err == nil {
		t.Fatal("accepted a malformed body")
	}
	st, err := ParseStatsz([]byte(`{"schema":"f90y-statsz/v1","jobs":{"completed":7},"cache":{"hits":5,"misses":2},
		"durability":{"journal_records":21,"spill_writes":3,"disk_cache":{"writes":2}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Completed != 7 || st.Cache.Hits != 5 || st.Durability.JournalRecords != 21 ||
		st.Durability.SpillWrites != 3 || st.Durability.DiskCache.Writes != 2 {
		t.Fatalf("parsed %+v", st)
	}
}
