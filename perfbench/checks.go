package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// smartsFactor bounds how far a SMARTS CPI estimate may lie from the
// reference CPI of the same benchmark and machine: within this factor, in
// either direction. The bound is per permutation because the sample counts
// differ tenfold at the benchmark's scale (about 130 units of U=1000 per
// program, 13 of U=10000). Over 16 to 240 envelope machines per benchmark,
// the widest ratios seen were 1.32 (vpr-route, U=1000) and 1.89 (gzip,
// U=10000).
var smartsFactor = map[core.SMARTS]float64{
	{U: 1000, W: 2000}:   1.6,
	{U: 10000, W: 20000}: 2.5,
}

// oracle holds what the checks compare against, computed apart from the
// cells: the instructions cpu.Emu retires running each program to halt.
type oracle struct {
	retired map[string]uint64 // by bench/input
}

func newOracle() *oracle { return &oracle{retired: map[string]uint64{}} }

// programLength runs the program functionally to halt.
func (o *oracle) programLength(b bench.Name, in bench.InputSet) (uint64, error) {
	k := string(b) + "/" + string(in)
	if n, ok := o.retired[k]; ok {
		return n, nil
	}
	p, err := bench.Build(b, in, scale)
	if err != nil {
		return 0, err
	}
	e := cpu.NewEmu(p)
	for !e.Halted {
		e.Run(1 << 24)
	}
	o.retired[k] = e.Count
	return e.Count, nil
}

// verdict is the outcome of checking one round.
type verdict struct {
	failed   int      // cells that erred or measured an empty window
	empty    []string // bench/technique of each empty-window cell
	problems []string // every other failed check
}

func (v *verdict) problem(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// checkRound checks every cell of a round against the oracle and the
// properties each method must have.
func checkRound(p *plan, log *roundLog, o *oracle) verdict {
	var v verdict
	refCPI := map[string]float64{} // bench/config -> reference CPI
	for i, c := range p.cells {
		if c.tech.Family() == core.FamilyReference && log.ran[i] && log.err[i] == nil {
			refCPI[string(c.bench)+"/"+c.cfg.Name] = log.res[i].Stats.CPI()
		}
	}
	for i, c := range p.cells {
		switch {
		case !log.ran[i]:
			v.failed++
			v.problem("%s: never ran", c)
			continue
		case log.err[i] != nil:
			v.failed++
			v.problem("%s: %v", c, log.err[i])
			continue
		case log.res[i].Stats.Instructions == 0:
			v.failed++ // an empty window: a failed operation, not a wrong result
			v.empty = append(v.empty, string(c.bench)+"/"+c.tech.Name())
			continue
		}
		for _, msg := range checkCell(c, log.res[i].Stats, o) {
			v.problem("%s: %s", c, msg)
		}
		if t, ok := c.tech.(core.SMARTS); ok {
			ref, ok := refCPI[string(c.bench)+"/"+c.cfg.Name]
			est, f := log.res[i].Stats.CPI(), smartsFactor[t]
			switch {
			case !ok || f == 0:
				v.problem("%s: no reference CPI or bound to compare with", c)
			case est > f*ref || est*f < ref:
				v.problem("%s: SMARTS CPI %.4f is not within a factor %.1f of reference %.4f", c, est, f, ref)
			}
		}
	}
	return v
}

// checkCell checks one non-empty cell's statistics.
func checkCell(c cell, st sim.Stats, o *oracle) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	switch t := c.tech.(type) {
	case core.Reference, core.Reduced:
		in := bench.Reference
		if r, ok := t.(core.Reduced); ok {
			in = r.Input
		}
		want, err := o.programLength(c.bench, in)
		if err != nil {
			fail("oracle: %v", err)
		} else if st.Instructions != want {
			fail("committed %d instructions, the emulator retires %d", st.Instructions, want)
		}
	case core.RunZ:
		checkWindow(st, t.Z, fail)
	case core.FFRun:
		checkWindow(st, t.Z, fail)
	case core.FFWURun:
		checkWindow(st, t.Z, fail)
	}

	if w := uint64(c.cfg.Core.CommitWidth); st.Instructions > w*st.Cycles {
		fail("IPC %.3f above commit width %d", st.IPC(), w)
	}
	for _, lv := range []struct {
		name string
		a, m uint64
	}{{"L1I", st.L1I.Accesses, st.L1I.Misses}, {"L1D", st.L1D.Accesses, st.L1D.Misses}, {"L2", st.L2.Accesses, st.L2.Misses}} {
		if lv.m > lv.a {
			fail("%s misses %d exceed accesses %d", lv.name, lv.m, lv.a)
		}
	}
	var stack uint64
	for _, v := range st.Core.CycleStack {
		stack += v
	}
	if stack != st.Cycles {
		fail("CPI stack sums to %d cycles, window has %d", stack, st.Cycles)
	}
	// SimPoint weights its windows, rounding each counter on its own, so
	// the identity holds only for unweighted windows.
	if c.tech.Family() != core.FamilySimPoint {
		if want := st.L1I.Misses + st.L1D.Misses + st.L1D.Writebacks; st.L2.Accesses != want {
			fail("L2 accesses %d, L1I+L1D misses and L1D write-backs %d", st.L2.Accesses, want)
		}
	}
	return bad
}

// checkWindow checks that a truncated technique measured exactly the Z
// paper-M its parameters name.
func checkWindow(st sim.Stats, z float64, fail func(string, ...any)) {
	if want := scale.Instr(z); st.Instructions != want {
		fail("measured %d instructions, Run %.0fM names %d", st.Instructions, z, want)
	}
}

// digest hashes every cell's sim.Stats, in plan order, with the cell's
// identity. Two runs of one seed print the same digest exactly when every
// simulated statistic agrees.
func digest(p *plan, log *roundLog) string {
	h := sha256.New()
	for i, c := range p.cells {
		fmt.Fprintf(h, "%s\n", c)
		if !log.ran[i] || log.err[i] != nil {
			fmt.Fprintf(h, "error\n")
			continue
		}
		if err := binary.Write(h, binary.LittleEndian, log.res[i].Stats); err != nil {
			panic(err) // sim.Stats has only fixed-size fields
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
