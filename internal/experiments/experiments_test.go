package experiments

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
)

// tinyOptions returns a corpus small enough for unit tests: two benchmarks
// with contrasting signatures and a minimal technique subset.
func tinyOptions() *Options {
	o := DefaultOptions()
	o.Scale = sim.Scale{Unit: 100}
	o.Benches = []bench.Name{bench.VprRoute, bench.Mcf}
	return o
}

// tinyTechniques trims the representative catalogue further for speed.
func tinyTechniques(b bench.Name) []core.Technique {
	ts := []core.Technique{
		core.SimPoint{IntervalM: 100, MaxK: 8, Seeds: 2, MaxIter: 20},
		core.SMARTS{U: 500, W: 1000},
		core.RunZ{Z: 1000},
		core.FFRun{X: 2000, Z: 1000},
		core.FFWURun{X: 1990, Y: 10, Z: 1000},
	}
	if bench.Has(b, bench.Small) {
		ts = append(ts, core.Reduced{Input: bench.Small})
	} else if bench.Has(b, bench.Large) {
		ts = append(ts, core.Reduced{Input: bench.Large})
	}
	return ts
}

func TestEngineCaches(t *testing.T) {
	eng := NewEngine(sim.Scale{Unit: 100})
	cfg := sim.BaseConfig()
	r1, err := eng.Run(bench.VprRoute, core.RunZ{Z: 500}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(bench.VprRoute, core.RunZ{Z: 500}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cycles != r2.Stats.Cycles {
		t.Error("cached result differs")
	}
	runs, hits := eng.Stats()
	if runs != 1 || hits != 1 {
		t.Errorf("runs=%d hits=%d, want 1/1", runs, hits)
	}
}

func TestFigure1SamplingBeatsTruncation(t *testing.T) {
	// The paper's central finding, at miniature scale: on mcf (memory
	// bound), sampling techniques have smaller bottleneck distances than
	// reduced inputs.
	o := tinyOptions()
	o.Benches = []bench.Name{bench.Mcf}
	design, err := o.Design()
	if err != nil {
		t.Fatal(err)
	}
	if design.Runs() != 44 {
		t.Fatalf("design runs = %d, want 44", design.Runs())
	}
	o.TechniquesFn = tinyTechniques
	f1, err := Figure1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) == 0 {
		t.Fatal("no figure 1 rows")
	}
	dist := map[core.Family]float64{}
	for _, row := range f1.Rows {
		dist[row.Family] = row.Mean
	}
	if dist[core.FamilySMARTS] >= dist[core.FamilyReduced] {
		t.Errorf("SMARTS distance %.2f not below reduced %.2f on mcf",
			dist[core.FamilySMARTS], dist[core.FamilyReduced])
	}
	// Rendering must include every family present.
	text := f1.Render()
	for f := range dist {
		if !strings.Contains(text, string(f)) {
			t.Errorf("render missing family %s", f)
		}
	}

	// Figure 2 reuses Figure 1 results.
	f2, err := Figure2(f1, o.Benches, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 1 || len(f2[0].Difference) != sim.NumParams {
		t.Fatalf("figure 2 series malformed: %+v", f2)
	}
	if RenderFigure2(f2) == "" {
		t.Error("empty figure 2 render")
	}
}

func TestSvATShapes(t *testing.T) {
	o := tinyOptions()
	o.Benches = []bench.Name{bench.Mcf}
	o.TechniquesFn = tinyTechniques
	res, err := SvAT(o, bench.Mcf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no SvAT points")
	}
	var smarts, reduced, runz *SvATPoint
	for i := range res.Points {
		p := &res.Points[i]
		switch p.Family {
		case core.FamilySMARTS:
			smarts = p
		case core.FamilyReduced:
			reduced = p
		case core.FamilyRunZ:
			runz = p
		}
	}
	if smarts == nil || reduced == nil || runz == nil {
		t.Fatal("missing families in SvAT")
	}
	// Key shape: sampling is far more accurate than truncation/reduction.
	if smarts.Accuracy >= reduced.Accuracy {
		t.Errorf("SMARTS accuracy %.3f not better than reduced %.3f", smarts.Accuracy, reduced.Accuracy)
	}
	if smarts.Accuracy >= runz.Accuracy {
		t.Errorf("SMARTS accuracy %.3f not better than Run Z %.3f", smarts.Accuracy, runz.Accuracy)
	}
	// Every technique must be faster than the reference.
	for _, p := range res.Points {
		if p.SpeedPct >= 100 {
			t.Errorf("%s speed %.1f%% >= reference", p.Technique, p.SpeedPct)
		}
	}
	if len(res.FamilyOrdering()) == 0 {
		t.Error("ordering empty")
	}
	// The header is written verbatim, not through a format string.
	if out := res.Render(); !strings.Contains(out, "\n(speed: % of reference simulation time,") || strings.Contains(out, "%%") {
		t.Errorf("speed header not rendered verbatim:\n%s", out)
	}
}

func TestFigure5Shapes(t *testing.T) {
	o := tinyOptions()
	o.Benches = []bench.Name{bench.Mcf}
	o.TechniquesFn = tinyTechniques
	res, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) == 0 {
		t.Fatal("no figure 5 entries")
	}
	for _, e := range res.All {
		var sum float64
		for _, s := range e.Hist.Shares {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: histogram shares sum to %.3f", e.Technique, sum)
		}
		if e.SignConsistency < 0.5 || e.SignConsistency > 1 {
			t.Errorf("%s: sign consistency %.3f out of range", e.Technique, e.SignConsistency)
		}
	}
	// SMARTS should dominate reduced inputs in the 0-3% bucket.
	within := map[core.Family]float64{}
	for f, wb := range res.WorstBest {
		within[f] = wb[1].Hist.Within3()
	}
	if within[core.FamilySMARTS] <= within[core.FamilyReduced] {
		t.Errorf("SMARTS best within-3%% share %.2f not above reduced %.2f",
			within[core.FamilySMARTS], within[core.FamilyReduced])
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure6Shapes(t *testing.T) {
	o := tinyOptions()
	o.TechniquesFn = tinyTechniques
	res, err := Figure6(o, bench.Gzip, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no figure 6 rows")
	}
	for _, row := range res.Rows {
		if row.TechSpeedup <= 0 || row.RefSpeedup <= 0 {
			t.Errorf("%s/%s: non-positive speedups %+v", row.Technique, row.Enhancement, row)
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestDecisionTree(t *testing.T) {
	d := NewDecisionTree()
	for _, c := range Criteria() {
		if len(d.Orderings[c]) != 6 {
			t.Errorf("%s: %d families, want 6", c, len(d.Orderings[c]))
		}
		if d.Rationale[c] == "" {
			t.Errorf("%s: missing rationale", c)
		}
	}
	f, err := d.Recommend([]Criterion{CriterionAccuracy})
	if err != nil || f != core.FamilySMARTS {
		t.Errorf("accuracy-first recommendation = %v (%v), want SMARTS", f, err)
	}
	f, err = d.Recommend([]Criterion{CriterionSpeedAccuracy, CriterionCostGenerate})
	if err != nil || f != core.FamilySimPoint {
		t.Errorf("speed-first recommendation = %v (%v), want SimPoint", f, err)
	}
	if _, err := d.Recommend(nil); err == nil {
		t.Error("empty criteria accepted")
	}
	if _, err := d.Recommend([]Criterion{"bogus"}); err == nil {
		t.Error("unknown criterion accepted")
	}
	if !strings.Contains(d.Render(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestTables(t *testing.T) {
	t1 := Table1(bench.Gzip)
	if !strings.Contains(t1, "total: 69 permutations") {
		t.Errorf("Table 1 for gzip should list 69 permutations:\n%s", t1)
	}
	t2 := Table2()
	if !strings.Contains(t2, "N/A") || !strings.Contains(t2, "ref.log") {
		t.Error("Table 2 missing expected cells")
	}
	t3 := Table3()
	if !strings.Contains(t3, "config#2") || !strings.Contains(t3, "combined") {
		t.Error("Table 3 missing expected content")
	}
	sv := RenderSurvey()
	if !strings.Contains(sv, "86.7%") {
		t.Errorf("survey headline should total 86.7%%:\n%s", sv)
	}
}
