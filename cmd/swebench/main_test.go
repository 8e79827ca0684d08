package main

import (
	"bytes"
	"strings"
	"testing"

	"f90y/internal/driver"
)

// suiteIDs lists every experiment, in presentation order.
func suiteIDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return ids
}

// TestConcurrentSuiteMatchesSerial renders the whole suite serially and
// on a parallel pool and asserts the output is byte-identical: the
// experiments share a compile cache but no mutable run state, and the
// pool flushes buffers in experiment order.
func TestConcurrentSuiteMatchesSerial(t *testing.T) {
	const n, steps = 32, 2
	var serial, parallel bytes.Buffer
	if err := runSuite(&serial, driver.New(1), suiteIDs(), n, steps, 1); err != nil {
		t.Fatal(err)
	}
	if err := runSuite(&parallel, driver.New(8), suiteIDs(), n, steps, 8); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("serial suite produced no output")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("parallel suite output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if !strings.Contains(serial.String(), "E7 (§5.3.1)") {
		t.Error("suite output is missing the E7 table")
	}
}

// TestConcurrentSuiteSharesCompiles asserts the experiments hit the
// shared cache: e1 and e7 compile the same SWE source under the same
// config, so a full-suite pass must record at least one cache hit.
func TestConcurrentSuiteSharesCompiles(t *testing.T) {
	svc := driver.New(4)
	var out bytes.Buffer
	if err := runSuite(&out, svc, suiteIDs(), 32, 2, 4); err != nil {
		t.Fatal(err)
	}
	hits, misses := svc.CacheStats()
	if hits == 0 {
		t.Errorf("full suite recorded no compile-cache hits (misses=%d); e1 and e7 share the SWE compile", misses)
	}
}

// TestConcurrentBenchRecordDeterministic asserts the -json record's
// modeled fields are identical whether the systems are measured
// serially or concurrently.
func TestConcurrentBenchRecordDeterministic(t *testing.T) {
	serial, _, err := buildRecord(32, 2, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := buildRecord(32, 2, nil, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Phases hold wall-clock times; everything else is modeled and must
	// not depend on measurement concurrency.
	serial.Phases, parallel.Phases = nil, nil
	sj, pj := render(t, serial), render(t, parallel)
	if sj != pj {
		t.Errorf("bench record differs serial vs parallel:\n%s\nvs\n%s", sj, pj)
	}
}

func render(t *testing.T, rec benchRecord) string {
	t.Helper()
	var b bytes.Buffer
	if err := writeRecordTo(&b, rec); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
