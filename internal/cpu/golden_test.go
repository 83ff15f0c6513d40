package cpu_test

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_core.jsonl from the current core")

const goldenPath = "testdata/golden_core.jsonl"

// goldenRecord is one measurement window of the golden corpus: the full
// sim.Stats delta (every CoreStats counter including the CPI stack, plus
// the cache, TLB and predictor counters) keyed by benchmark, machine and
// window name.
type goldenRecord struct {
	Bench  string    `json:"bench"`
	Config string    `json:"config"`
	Window string    `json:"window"`
	Stats  sim.Stats `json:"stats"`
}

// goldenConfigs are the machines of the corpus: the base machine, the two
// Plackett-Burman envelope machines (every factor low, with the longest
// memory latency, and every factor high) and both trivial-computation
// modes.
func goldenConfigs(t testing.TB) []sim.Config {
	t.Helper()
	envelope := func(name string, high bool) sim.Config {
		levels := make([]bool, sim.NumParams)
		for i := range levels {
			levels[i] = high
		}
		c, err := sim.PBConfig(levels)
		if err != nil {
			t.Fatal(err)
		}
		c.Name = name
		c.Mem.MemFirst = 400
		return c
	}
	simplify, eliminate := sim.BaseConfig(), sim.BaseConfig()
	simplify.Name, simplify.Core.TC = "base-tc-simplify", cpu.TCSimplify
	eliminate.Name, eliminate.Core.TC = "base-tc-eliminate", cpu.TCEliminate
	return []sim.Config{
		sim.BaseConfig(),
		envelope("pb-low", false),
		envelope("pb-high", true),
		simplify,
		eliminate,
	}
}

// goldenWindows drives one machine through every way the detailed core is
// entered and left, recording each window: a single Run, a sequence of
// RunChunk calls whose hard target is the phase end, a drain followed by
// functional warming, detailed execution again after the warm gap, a drain
// and fast-forward to near the program's end, and a run to completion. Windows
// start and stop wherever the pipeline happens to be, so a change that
// moves a cycle across a window boundary shows as a changed window.
func goldenWindows(t testing.TB, p *program.Program, cfg sim.Config, total uint64) []goldenRecord {
	t.Helper()
	r, err := sim.NewRunner(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenRecord
	window := func(name string, run func()) {
		r.Mark()
		run()
		out = append(out, goldenRecord{Bench: p.Name, Config: cfg.Name, Window: name, Stats: r.Window()})
	}
	r.FastForward(total / 3)
	window("run", func() { r.Core.Run(25000) })
	window("chunks", func() {
		const phase, chunk = 25000, 3700
		for got := uint64(0); got < phase; {
			c := min(chunk, phase-got)
			k := r.Core.RunChunk(c, phase-got)
			got += k
			if k < c {
				break
			}
		}
	})
	window("drain-warm", func() {
		r.Drain()
		r.FunctionalWarm(30000)
	})
	window("detailed", func() { r.Core.Run(25000) })
	window("drain-ff", func() {
		r.Drain()
		if pos := r.Position(); total > pos+10000 {
			r.FastForward(total - pos - 10000)
		}
	})
	out = append(out, goldenRecord{Bench: p.Name, Config: cfg.Name, Window: "completion", Stats: r.RunToCompletion()})
	if !r.Done() {
		t.Fatalf("%s on %s: program did not run to completion", p.Name, cfg.Name)
	}
	return out
}

// TestGoldenCore pins the detailed core to a committed corpus: every
// window of every benchmark on every golden machine must reproduce its
// recorded statistics exactly. Run with -update to regenerate the corpus
// after a change that is meant to move simulated statistics.
func TestGoldenCore(t *testing.T) {
	var got []goldenRecord
	for _, b := range bench.All() {
		p := bench.MustBuild(b, bench.Reference, sim.ScaleTest)
		e := cpu.NewEmu(p)
		total := e.Run(^uint64(0))
		for _, cfg := range goldenConfigs(t) {
			got = append(got, goldenWindows(t, p, cfg, total)...)
		}
	}
	if *update {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("golden corpus has %d windows, the run produced %d (regenerate with -update)", len(want), len(got))
	}
	bad := 0
	for i := range got {
		g, w := got[i], want[i]
		if g.Bench != w.Bench || g.Config != w.Config || g.Window != w.Window {
			t.Fatalf("window %d is %s/%s/%s, golden has %s/%s/%s", i,
				g.Bench, g.Config, g.Window, w.Bench, w.Config, w.Window)
		}
		if g.Stats != w.Stats {
			bad++
			if bad <= 5 {
				gj, _ := json.Marshal(g.Stats)
				wj, _ := json.Marshal(w.Stats)
				t.Errorf("%s on %s, window %s:\n got  %s\n want %s", g.Bench, g.Config, g.Window, gj, wj)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d windows differ from the golden corpus", bad, len(got))
	}
}

func writeGolden(t *testing.T, recs []goldenRecord) {
	t.Helper()
	var sb strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d windows to %s", len(recs), goldenPath)
}

func readGolden(t *testing.T) []goldenRecord {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/cpu/ -run TestGoldenCore -update)", err)
	}
	defer f.Close()
	var out []goldenRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var r goldenRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
