package cm5

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/rt"
)

const ctlProg = `program t
real a(64), b(64), c(64)
real s
integer i
a = 1.0
b = 0.0
do i = 1, 16
  b = a*2.0 + b
  c = cshift(b, 1)
  a = c + 0.5
end do
s = sum(a)
print *, 'sum =', s
end program t
`

func compileCtl(t *testing.T) *fe.Program {
	t.Helper()
	tree, err := parser.Parse("t.f90", ctlProg)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Lower(tree)
	if err != nil {
		t.Fatal(err)
	}
	omod, _ := opt.Optimize(mod, opt.Default)
	prog, _, err := partition.Compile(omod, pe.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func sameCM5Result(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if a.VUCycles != b.VUCycles || a.SPARCCycles != b.SPARCCycles || a.DegradeCycles != b.DegradeCycles {
		t.Errorf("%s: node split differs: vu %v/%v sparc %v/%v degrade %v/%v", what,
			a.VUCycles, b.VUCycles, a.SPARCCycles, b.SPARCCycles, a.DegradeCycles, b.DegradeCycles)
	}
	if a.HostCycles != b.HostCycles || a.PECycles != b.PECycles || a.CommCycles != b.CommCycles {
		t.Errorf("%s: cycles differ: host %v/%v pe %v/%v comm %v/%v", what,
			a.HostCycles, b.HostCycles, a.PECycles, b.PECycles, a.CommCycles, b.CommCycles)
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("%s: output differs: %q vs %q", what, a.Output, b.Output)
	}
	if !reflect.DeepEqual(a.PEClassCycles, b.PEClassCycles) {
		t.Errorf("%s: pe-class map differs: %v vs %v", what, a.PEClassCycles, b.PEClassCycles)
	}
	for name, arr := range a.Store.Arrays {
		if !reflect.DeepEqual(arr.Data, b.Store.Arrays[name].Data) {
			t.Errorf("%s: array %q differs", what, name)
		}
	}
}

// TestCM5RunCtlNilZeroOverhead: the zero-overhead invariant holds on
// the CM-5 path too, including the VU/SPARC cycle split.
func TestCM5RunCtlNilZeroOverhead(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	plain, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := m.RunCtl(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCM5Result(t, "nil-ctl", plain, ctl)
	if ctl.DegradeCycles != 0 || ctl.Faults != nil {
		t.Error("fault-free run must carry no degrade cycles or stats")
	}
}

// TestCM5CheckpointResumeAfterFatal: the CM-5 three-way node split
// (VU / SPARC / degrade) travels through the checkpoint Extra section
// and a resumed run reproduces an uninterrupted one exactly.
func TestCM5CheckpointResumeAfterFatal(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	clean, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	var last *rt.Checkpoint
	inj := faults.New(&faults.Plan{Seed: 1, Events: []faults.Event{{At: 40, Kind: faults.FatalStop}}}, nil)
	_, err = m.RunCtl(prog, nil, &cm2.Control{
		Faults:          inj,
		CheckpointEvery: 3,
		Checkpoint:      func(ck *rt.Checkpoint) error { last = ck; return nil },
	})
	if !errors.Is(err, faults.ErrFatal) {
		t.Fatalf("run survived the fatal fault: %v", err)
	}
	if last == nil {
		t.Fatal("no checkpoint before the fatal fault")
	}
	if last.Machine != "cm5" {
		t.Fatalf("machine tag %q, want cm5", last.Machine)
	}
	if _, ok := last.Extra["vu-cycles"]; !ok {
		t.Fatalf("cm5 snapshot lacks the vu-cycles split: %v", last.Extra)
	}

	resumed, err := m.RunCtl(prog, nil, &cm2.Control{Resume: last})
	if err != nil {
		t.Fatal(err)
	}
	sameCM5Result(t, "resumed", clean, resumed)
}

// TestCM5NodeKillDegrades: a scheduled node kill on the CM-5 degrades
// into the buddy VU with the penalty charged to DegradeCycles, and the
// computed values stay exact.
func TestCM5NodeKillDegrades(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	clean, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(&faults.Plan{Seed: 1, Events: []faults.Event{{At: 2, Kind: faults.KillPE, PE: 3}}}, nil)
	degraded, err := m.RunCtl(prog, nil, &cm2.Control{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.DegradeCycles <= 0 {
		t.Error("no degrade cycles charged")
	}
	if degraded.PECycles != degraded.VUCycles+degraded.SPARCCycles+degraded.DegradeCycles {
		t.Errorf("node split does not sum: %v != %v + %v + %v",
			degraded.PECycles, degraded.VUCycles, degraded.SPARCCycles, degraded.DegradeCycles)
	}
	for name, arr := range clean.Store.Arrays {
		if !reflect.DeepEqual(arr.Data, degraded.Store.Arrays[name].Data) {
			t.Errorf("array %q differs under degradation", name)
		}
	}
}

// TestResumeRejectsMalformedCheckpoint: a checkpoint that passes its
// integrity check but was not written by this program on this machine
// model — a resume position outside the program, a mid-loop position on
// an op that is not a serial DO or past the loop's bounds, or a
// snapshot from the other back end — is rejected with an error wrapping
// rt.ErrCkptCorrupt on both back ends. It must never panic, and never
// "succeed" having run a truncated program.
func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	prog := compileCtl(t)
	doOp, plainOp := -1, -1
	for i, op := range prog.Ops {
		if _, ok := op.(fe.DoSerial); ok {
			doOp = i
		} else if plainOp < 0 {
			plainOp = i
		}
	}
	if doOp < 0 || plainOp < 0 {
		t.Fatalf("test program needs a top-level serial DO and another op: %d ops", len(prog.Ops))
	}
	backends := []struct {
		name, other string
		run         func(ctl *cm2.Control) error
	}{
		{"cm2", "cm5", func(ctl *cm2.Control) error { _, err := cm2.Default().RunCtl(prog, nil, nil, ctl); return err }},
		{"cm5", "cm2", func(ctl *cm2.Control) error { _, err := Default().RunCtl(prog, nil, ctl); return err }},
	}
	cases := []struct {
		name   string
		mutate func(ck *rt.Checkpoint, other string)
	}{
		{"next-op-negative", func(ck *rt.Checkpoint, _ string) { ck.NextOp, ck.InLoop = -1, false }},
		{"next-op-past-end", func(ck *rt.Checkpoint, _ string) { ck.NextOp, ck.InLoop = len(prog.Ops)+5, false }},
		{"foreign-machine", func(ck *rt.Checkpoint, other string) { ck.Machine = other }},
		{"in-loop-not-a-do", func(ck *rt.Checkpoint, _ string) { ck.NextOp, ck.InLoop, ck.IterDone = plainOp, true, 1 }},
		{"in-loop-at-end", func(ck *rt.Checkpoint, _ string) { ck.NextOp, ck.InLoop, ck.IterDone = len(prog.Ops), true, 1 }},
		{"in-loop-iteration-out-of-range", func(ck *rt.Checkpoint, _ string) { ck.NextOp, ck.InLoop, ck.IterDone = doOp, true, 99 }},
	}
	for _, be := range backends {
		var first *rt.Checkpoint
		if err := be.run(&cm2.Control{CheckpointEvery: 1, Checkpoint: func(ck *rt.Checkpoint) error {
			if first == nil {
				first = ck
			}
			return nil
		}}); err != nil {
			t.Fatalf("%s: checkpointed run: %v", be.name, err)
		}
		for _, tc := range cases {
			// Round-trip through the file format, so the resumed snapshot
			// is one that passed the CRC check exactly as -resume reads it.
			ck := *first
			tc.mutate(&ck, be.other)
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := ck.Write(path); err != nil {
				t.Fatal(err)
			}
			read, err := rt.ReadCheckpoint(path)
			if err != nil {
				t.Fatalf("%s/%s: CRC-valid checkpoint rejected on read: %v", be.name, tc.name, err)
			}
			err = be.run(&cm2.Control{Resume: read})
			if !errors.Is(err, rt.ErrCkptCorrupt) {
				t.Errorf("%s/%s: resume returned %v, want an error wrapping rt.ErrCkptCorrupt", be.name, tc.name, err)
			}
		}
	}
}
