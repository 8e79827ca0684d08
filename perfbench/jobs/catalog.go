// Package jobs builds the benchmark's inputs: the fixed catalog of
// Fortran programs (all from internal/workload generators), the seeded
// job streams the serve workloads replay, and the modeled results each
// program must reproduce.
package jobs

import (
	"fmt"
	"strings"

	"f90y/internal/workload"
)

// Entry is one catalog program.
type Entry struct {
	// ID is the stable catalog key, also the key of its frozen results.
	ID string
	// Program is the Fortran program unit name, renamed for cold jobs.
	Program string
	// Source is the generator's output plus a PRINT of a checksum of
	// the program's main array, so the output a server returns carries
	// the computed values and not only the modeled statistics.
	Source string
}

// File is the name the entry's source is submitted under.
func (e Entry) File() string { return e.ID + ".f90" }

// Variant renames the program unit: a distinct program the compile
// cache has never seen, whose modeled results and output equal the
// entry's.
func (e Entry) Variant(suffix string) string {
	name := e.Program + suffix
	src := strings.Replace(e.Source, "program "+e.Program+"\n", "program "+name+"\n", 1)
	return strings.Replace(src, "end program "+e.Program+"\n", "end program "+name+"\n", 1)
}

// probe appends "print *, sum(arr)" before the closing line.
func probe(id, prog, src, arr string) Entry {
	end := "end program " + prog + "\n"
	if !strings.HasSuffix(src, end) || !strings.HasPrefix(src, "program "+prog+"\n") {
		panic(fmt.Sprintf("jobs: generator for %s changed its program framing", id))
	}
	body := strings.TrimSuffix(src, end)
	return Entry{ID: id, Program: prog, Source: body + "print *, sum(" + arr + ")\n" + end}
}

// SWE512 is the swe-512 workload's program: the paper's §6 benchmark at
// n=512 with four leapfrog steps, exactly as the generator writes it.
func SWE512() Entry {
	return Entry{ID: "swe-n512-s4", Program: "swe", Source: workload.SWE(512, 4)}
}

// Directive menus for the layout kernel trio: the default BLOCK layout
// plus the CYCLIC and aligned layouts of the layout sweep.
var (
	transposeLayouts = map[string][]string{
		"block":  nil,
		"cyclic": {"!HPF$ DISTRIBUTE a(CYCLIC, CYCLIC)", "!HPF$ ALIGN b WITH a", "!HPF$ ALIGN c WITH a"},
		"rowcol": {"!HPF$ DISTRIBUTE a(BLOCK, *)", "!HPF$ DISTRIBUTE b(*, BLOCK)", "!HPF$ ALIGN c WITH b"},
	}
	fftLayouts = map[string][]string{
		"block":   nil,
		"cyclic":  {"!HPF$ DISTRIBUTE x(CYCLIC)", "!HPF$ ALIGN y WITH x"},
		"cyclic2": {"!HPF$ PROCESSORS procs(16)", "!HPF$ DISTRIBUTE x(CYCLIC(2)) ONTO procs", "!HPF$ ALIGN y WITH x"},
	}
	gatherLayouts = map[string][]string{
		"block":   nil,
		"cyclic":  {"!HPF$ DISTRIBUTE a(CYCLIC)", "!HPF$ ALIGN b WITH a"},
		"cyclic4": {"!HPF$ DISTRIBUTE a(CYCLIC(4))", "!HPF$ ALIGN b WITH a", "!HPF$ ALIGN idx WITH a"},
	}
	layoutNames = []string{"block", "cyclic", "rowcol", "cyclic2", "cyclic4"}
)

// Catalog is the serve workloads' program set, in a fixed order: small
// sizes (n = 24..96, or 4096-element vectors) so per-job fixed costs
// dominate. Sizes are capped so that no program costs more than a few
// times the mean even when f90yd checkpoints it: programs with serial
// loops over n (Fig. 9) or many steps spill their store often.
func Catalog() []Entry {
	var c []Entry
	for _, n := range []int{24, 32} {
		c = append(c,
			probe(fmt.Sprintf("swe-n%d", n), "swe", workload.SWE(n, 2), "p"),
			probe(fmt.Sprintf("fig9-n%d", 3*n/2), "fig9", workload.Fig9(3*n/2), "a"),
		)
	}
	for _, n := range []int{64, 96} {
		c = append(c,
			probe(fmt.Sprintf("stencil-n%d", n), "stencil", workload.Stencil(n, 2), "grid"),
			probe(fmt.Sprintf("fig10-n%d", n), "fig10", workload.Fig10(n), "b"),
			probe(fmt.Sprintf("fig11-n%d", n), "fig11", workload.Fig11(n, 8), "a2"),
			probe(fmt.Sprintf("fig12-n%d", n), "fig12", workload.Fig12(n), "z"),
		)
	}
	for _, terms := range []int{10, 14} {
		c = append(c, probe(fmt.Sprintf("spill-t%d", terms), "spill", workload.SpillKernel(128, terms), "r"))
	}
	for _, l := range layoutNames {
		if d, ok := transposeLayouts[l]; ok {
			c = append(c, probe("ltrans-n48-"+l, "ltrans", workload.LayoutTranspose(48, 2, d), "c"))
		}
	}
	for _, l := range layoutNames {
		if d, ok := fftLayouts[l]; ok {
			c = append(c, probe("lfft-n4096-"+l, "lfft", workload.LayoutFFT(4096, 6, d), "x"))
		}
	}
	for _, l := range layoutNames {
		if d, ok := gatherLayouts[l]; ok {
			c = append(c, probe("lgather-n4096-"+l, "lgather", workload.LayoutGather(4096, 2, d), "b"))
		}
	}
	return c
}
