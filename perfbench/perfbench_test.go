package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestPercentilesKeepTenBeyond(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(sorted, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {101, 0.9, true}, {10, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		if got := tenBeyond(c.n, c.q); got != c.want {
			t.Errorf("tenBeyond(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	// The run loop keeps going until p90 has ten samples beyond it, so a
	// workload must reach that in a bounded number of rounds.
	for _, w := range workloads {
		p, err := makePlan(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 1
		for !tenBeyond(rounds*len(p.cells), 0.9) {
			rounds++
		}
		if rounds > 4 {
			t.Errorf("%s needs %d rounds of %d cells for ten beyond p90", w.name, rounds, len(p.cells))
		}
	}
}

// planFingerprint is everything a plan feeds the program.
func planFingerprint(p *plan) []string {
	var out []string
	for _, c := range p.cells {
		out = append(out, c.String()+"|"+c.cfg.Key())
	}
	return out
}

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 7)
		c, _ := makePlan(w, 8)
		if !reflect.DeepEqual(planFingerprint(a), planFingerprint(b)) {
			t.Errorf("%s: seed 7 drew two different plans", w.name)
		}
		if reflect.DeepEqual(planFingerprint(a), planFingerprint(c)) {
			t.Errorf("%s: seeds 7 and 8 drew the same plan", w.name)
		}
		if len(a.cells) != len(c.cells) || !reflect.DeepEqual(a.passes, c.passes) {
			t.Errorf("%s: the number of cells depends on the seed", w.name)
		}
	}
}

func TestMachinesAreFoldedAndStratified(t *testing.T) {
	params := sim.Params()
	level := func(c sim.Config, j int) bool {
		probe := c
		params[j].Apply(&probe, true)
		return c.Key() == probe.Key()
	}
	for _, w := range workloads {
		p, err := makePlan(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j, prm := range params {
			high := 0
			for _, c := range p.machines {
				if level(c, j) {
					high++
				}
			}
			if 2*high != len(p.machines) {
				t.Errorf("%s: %s is high on %d of %d machines", w.name, prm.Name, high, len(p.machines))
			}
		}
		if w.machines == 0 {
			first, _ := paramIndex(params, costFactors[0])
			second, _ := paramIndex(params, costFactors[1])
			// Each benchmark's own machines take every combination of the
			// first two cost factors.
			combos := map[string]map[[2]bool]bool{}
			for _, c := range p.cells {
				if combos[string(c.bench)] == nil {
					combos[string(c.bench)] = map[[2]bool]bool{}
				}
				combos[string(c.bench)][[2]bool{level(c.cfg, first), level(c.cfg, second)}] = true
			}
			for bench, seen := range combos {
				if len(seen) != 4 {
					t.Errorf("%s: %s runs on %d combinations of %s and %s", w.name, bench, len(seen), costFactors[0], costFactors[1])
				}
			}
			continue
		}
		// Every two cost factors are balanced against each other.
		for a := 0; a < len(costFactors); a++ {
			for b := a + 1; b < len(costFactors); b++ {
				ja, _ := paramIndex(params, costFactors[a])
				jb, _ := paramIndex(params, costFactors[b])
				same := 0
				for _, c := range p.machines {
					if level(c, ja) == level(c, jb) {
						same++
					}
				}
				if 2*same != len(p.machines) {
					t.Errorf("%s: %s and %s agree on %d of %d machines", w.name, costFactors[a], costFactors[b], same, len(p.machines))
				}
			}
		}
	}
}

// oneCell runs real Run Z, SMARTS and reference cells of gcc on the base
// machine and returns a one-round log of them.
func oneCell(t *testing.T) (*plan, *roundLog) {
	t.Helper()
	cfg := sim.BaseConfig()
	p := &plan{w: workload{name: "test"}, passes: []int{0}, cells: []cell{
		{bench: bench.Gcc, tech: core.RunZ{Z: 500}, cfg: cfg},
		{bench: bench.Gcc, tech: core.SMARTS{U: 1000, W: 2000}, cfg: cfg},
		{bench: bench.Gcc, tech: core.Reference{}, cfg: cfg},
	}}
	log := newRoundLog(len(p.cells), nil, 0)
	for i, c := range p.cells {
		timed{Technique: c.tech, i: i, log: log, cel: c}.Run(core.Context{Bench: c.bench, Config: c.cfg, Scale: scale})
	}
	return p, log
}

func TestChecksRejectDoctoredResults(t *testing.T) {
	p, log := oneCell(t)
	o := newOracle()
	if v := checkRound(p, log, o); v.failed != 0 || len(v.problems) != 0 {
		t.Fatalf("real cells fail their checks: %d failed, %v", v.failed, v.problems)
	}
	good := log.res[0].Stats

	doctor := func(name string, edit func(*sim.Stats), wantFailed int, wantProblem string) {
		t.Helper()
		log.res[0].Stats = good
		edit(&log.res[0].Stats)
		v := checkRound(p, log, o)
		if v.failed != wantFailed {
			t.Errorf("%s: %d failed cells, want %d", name, v.failed, wantFailed)
		}
		if wantProblem == "" && len(v.problems) != 0 || wantProblem != "" && !strings.Contains(strings.Join(v.problems, "\n"), wantProblem) {
			t.Errorf("%s: problems %q, want one containing %q", name, v.problems, wantProblem)
		}
	}
	w := uint64(p.cells[0].cfg.Core.CommitWidth)
	doctor("IPC above commit width", func(s *sim.Stats) {
		s.Cycles = s.Instructions/w - 1
		s.Core.CycleStack = [len(s.Core.CycleStack)]uint64{s.Cycles}
	}, 0, "above commit width")
	doctor("empty truncated window", func(s *sim.Stats) { *s = sim.Stats{} }, 1, "")
	doctor("short truncated window", func(s *sim.Stats) { s.Instructions-- }, 0, "names")
	doctor("CPI stack that does not sum", func(s *sim.Stats) { s.Core.CycleStack[0]++ }, 0, "CPI stack")
	doctor("more misses than accesses", func(s *sim.Stats) { s.L1D.Misses = s.L1D.Accesses + 1 }, 0, "L1D misses")
	doctor("L2 accesses off the identity", func(s *sim.Stats) { s.L2.Accesses++ }, 0, "L2 accesses")
	log.res[0].Stats = good

	ref := log.res[2].Stats
	log.res[2].Stats.Instructions++
	if v := checkRound(p, log, o); !strings.Contains(strings.Join(v.problems, "\n"), "emulator retires") {
		t.Errorf("a reference cell one instruction long passed: %v", v.problems)
	}
	log.res[2].Stats = ref

	smarts := log.res[1].Stats
	log.res[1].Stats.Cycles *= 3
	if v := checkRound(p, log, o); !strings.Contains(strings.Join(v.problems, "\n"), "SMARTS CPI") {
		t.Errorf("a SMARTS estimate three times the reference passed: %v", v.problems)
	}
	log.res[1].Stats = smarts

	d := digest(p, log)
	if again := digest(p, log); again != d {
		t.Fatalf("digest is not repeatable: %s then %s", d, again)
	}
	log.res[2].Stats.L2.Misses++
	if changed := digest(p, log); changed == d {
		t.Errorf("digest %s did not change with an L2 miss count", d)
	}
}

func TestRoundsRecordEveryCellFromBothWorkers(t *testing.T) {
	cfgs := []sim.Config{sim.BaseConfig(), sim.ArchConfigs()[0], sim.ArchConfigs()[1], sim.ArchConfigs()[3]}
	for _, direct := range []bool{true, false} {
		p := &plan{w: workload{name: "test", benches: []bench.Name{bench.Gcc}, direct: direct}, passes: []int{0, 2}}
		for _, c := range cfgs {
			p.cells = append(p.cells, cell{bench: bench.Gcc, tech: core.RunZ{Z: 500}, cfg: c})
		}
		spans := &spanLog{}
		rd := runRound(context.Background(), p, newOptions(context.Background(), p), spans, 0)
		for i, c := range p.cells {
			if !rd.log.ran[i] || rd.log.err[i] != nil || rd.log.lat[i] <= 0 {
				t.Errorf("direct=%v: %s ran %v, err %v, latency %v", direct, c, rd.log.ran[i], rd.log.err[i], rd.log.lat[i])
			}
		}
		if got, want := len(spans.spans), len(p.cells)+len(p.passes); got != want {
			t.Errorf("direct=%v: %d spans, want one per cell and one per pass, %d", direct, got, want)
		}
		for _, sp := range spans.spans {
			if sp.End < sp.Start || sp.End == 0 {
				t.Errorf("direct=%v: span %+v never ended", direct, sp)
			}
		}
	}
}

func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the command reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the command reports %v", layer, perLayer)
	}
}

func TestBadFlagsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "catalogue", "--trace", "2"},
		{"--workload", "catalogue", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) = 0", args)
		}
	}
}
