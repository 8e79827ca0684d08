package driver

import (
	"fmt"
	"io"
	"os"

	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/obs"
	"f90y/internal/obs/profile"
	"f90y/internal/rt"
)

// FaultsHelp is the one -faults usage string shared by f90yc, f90yrun,
// and swebench, so the documented key list cannot drift between
// commands (see internal/faults.ParseSpec for semantics).
const FaultsHelp = "fault-injection spec, e.g. seed=7,pe=0.01,drop=0.001,fatal=200 " +
	"(keys: seed, pe, drop, corrupt, delay, stall, retries, backoff, backoff-cap, " +
	"stall-cycles, delay-cycles, degrade, kill=PE@T, fatal=T)"

// CheckpointPath resolves the snapshot path for a run of file: the
// explicit -checkpoint value when given, else <file>.ckpt.json.
func CheckpointPath(file, explicit string) string {
	if explicit != "" {
		return explicit
	}
	return file + ".ckpt.json"
}

// ControlOptions bundles the control-plane CLI flags shared by the
// commands: the fault spec, the checkpoint/resume paths, and the
// runtime guardrails (cycle budget, numeric-exception plane).
type ControlOptions struct {
	Faults          string  // -faults spec ("" = no injection)
	CheckpointEvery int     // -checkpoint-every (0 = off)
	CheckpointPath  string  // -checkpoint ("" = derive from file)
	ResumePath      string  // -resume ("" = fresh run)
	MaxCycles       float64 // -max-cycles watchdog budget (0 = off)
	Numeric         string  // -numeric off|trap|record ("" = off)
	ExecWorkers     int     // -exec-workers executor sharding (0/1 = serial, <0 = GOMAXPROCS)
}

// Build assembles the execution control plane for a run of file,
// reporting injection telemetry to rec. It returns (nil, nil) when no
// control feature is requested — the zero-overhead path.
func (o ControlOptions) Build(file string, rec obs.Recorder) (*cm2.Control, error) {
	plan, err := faults.ParseSpec(o.Faults)
	if err != nil {
		return nil, err
	}
	numMode, err := rt.ParseNumericMode(o.Numeric)
	if err != nil {
		return nil, err
	}
	workers := o.ExecWorkers
	if workers == 1 {
		workers = 0 // explicit serial: same zero-overhead path as unset
	}
	if plan == nil && o.CheckpointEvery == 0 && o.ResumePath == "" &&
		o.MaxCycles == 0 && numMode == rt.NumericOff && workers == 0 {
		return nil, nil
	}
	ctl := &cm2.Control{
		Faults:          faults.New(plan, rec),
		CheckpointEvery: o.CheckpointEvery,
		MaxCycles:       o.MaxCycles,
		Numeric:         rt.NewNumeric(numMode),
		ExecWorkers:     workers,
	}
	if o.CheckpointEvery > 0 {
		path := CheckpointPath(file, o.CheckpointPath)
		ctl.Checkpoint = func(ck *rt.Checkpoint) error { return ck.Write(path) }
	}
	if o.ResumePath != "" {
		ck, err := rt.ReadCheckpoint(o.ResumePath)
		if err != nil {
			return nil, err
		}
		ctl.Resume = ck
	}
	return ctl, nil
}

// ProfileOptions bundles the -profile* CLI flags shared by f90yrun and
// swebench: the text hot-line report and the two file artifacts built
// from the same source-line cycle attribution.
type ProfileOptions struct {
	Text   bool   // -profile: annotated source listing
	Pprof  string // -profile-pprof: gzipped pprof protobuf path ("" = off)
	Folded string // -profile-folded: folded-stacks path ("" = off)
}

// Any reports whether any profile output is requested.
func (o ProfileOptions) Any() bool {
	return o.Text || o.Pprof != "" || o.Folded != ""
}

// Emit renders the requested artifacts from p: the annotated listing to
// w, the pprof and folded files to their paths (each noted on logw). A
// nil p with outputs requested is an error — the run produced no
// attribution to profile.
func (o ProfileOptions) Emit(p *profile.Profile, w, logw io.Writer) error {
	if !o.Any() {
		return nil
	}
	if p == nil {
		return fmt.Errorf("driver: profile requested but the run produced no cycle attribution")
	}
	if o.Text {
		if err := p.WriteAnnotated(w); err != nil {
			return err
		}
	}
	write := func(path, kind string, render func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "%s profile written to %s\n", kind, path)
		return nil
	}
	if o.Pprof != "" {
		if err := write(o.Pprof, "pprof", p.WritePprof); err != nil {
			return err
		}
	}
	if o.Folded != "" {
		if err := write(o.Folded, "folded-stacks", p.WriteFolded); err != nil {
			return err
		}
	}
	return nil
}

// Telemetry is the -metrics/-trace wiring shared by the commands: one
// collector behind both flags, a text report, and a Chrome trace file.
type Telemetry struct {
	Metrics   bool
	TracePath string
	// Col is non-nil whenever any telemetry output is requested; extra
	// consumers (f90yc's -v and stats dump) may set it directly.
	Col *obs.Collector
}

// NewTelemetry builds the wiring, creating the collector when any
// output is requested.
func NewTelemetry(metrics bool, tracePath string) *Telemetry {
	t := &Telemetry{Metrics: metrics, TracePath: tracePath}
	if metrics || tracePath != "" {
		t.Col = obs.NewCollector()
	}
	return t
}

// Recorder is the collector as a nil-safe obs.Recorder for Config.Obs.
func (t *Telemetry) Recorder() obs.Recorder {
	if t.Col == nil {
		return nil
	}
	return t.Col
}

// Report writes the text telemetry report to w when -metrics is set.
func (t *Telemetry) Report(w io.Writer) {
	if t.Metrics && t.Col != nil {
		fmt.Fprint(w, t.Col.Report())
	}
}

// WriteTrace writes the Chrome trace_event file when -trace is set,
// noting the path on logw.
func (t *Telemetry) WriteTrace(logw io.Writer) error {
	if t.TracePath == "" {
		return nil
	}
	f, err := os.Create(t.TracePath)
	if err != nil {
		return err
	}
	if err := t.Col.WriteTrace(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", t.TracePath)
	return nil
}
