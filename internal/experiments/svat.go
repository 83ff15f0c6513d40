package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stats"
)

// SvATPoint is one technique permutation plotted on a speed-versus-accuracy
// graph (Figures 3 and 4): speed as a percentage of the reference's total
// simulation time and accuracy as the Manhattan distance between the
// technique's and the reference's CPI vectors across the configuration set.
type SvATPoint struct {
	Technique string
	Family    core.Family

	SpeedPct float64 // total simulation time, % of reference (lower = faster)
	Accuracy float64 // Manhattan distance of CPI vectors (lower = better)
	SetupPct float64 // one-time setup (SimPoint clustering), % of reference
}

// SvATResult is a full speed-versus-accuracy graph for one benchmark.
type SvATResult struct {
	Bench   bench.Name
	Configs int
	Points  []SvATPoint
}

// SvAT produces the Figure 3/4 graph for a benchmark: every technique
// permutation is run over the configuration envelope (the PB design rows,
// standing in for the paper's ~50 envelope configurations), wall-clock
// times are accumulated, and CPI vectors are compared with the Manhattan
// distance (§6.1).
// A failed technique permutation loses only its own point (recorded in
// o.Report()); the reference sweep is the baseline every point is measured
// against, so a reference failure fails the figure regardless of the fault
// policy.
func SvAT(o *Options, b bench.Name) (*SvATResult, error) {
	design, err := o.Design()
	if err != nil {
		return nil, err
	}
	// Plan + schedule (no-op when Parallel is 0); the reference and
	// technique sweeps below assemble from memoized outcomes.
	cells, err := SvATPlan(o, b)
	if err != nil {
		return nil, err
	}
	o.RunPlan(cells)
	artifact := "SvAT(" + string(b) + ")"

	// Reference CPI vector and total wall time.
	refCPIs := make([]float64, design.Runs())
	var refWall time.Duration
	for i, row := range design.Rows {
		cfg, err := pbConfig(row, i)
		if err != nil {
			return nil, err
		}
		res, err := o.run(b, core.Reference{}, cfg)
		if err != nil {
			o.Report().Fail(artifact, b, "reference", cfg.Name, err)
			return nil, err
		}
		refCPIs[i] = res.CPI()
		refWall += res.Wall
	}
	if refWall <= 0 {
		return nil, fmt.Errorf("experiments: zero reference wall time for %s", b)
	}
	o.Report().Completed()

	out := &SvATResult{Bench: b, Configs: design.Runs()}
	for _, tech := range o.Techniques(b) {
		cpis := make([]float64, design.Runs())
		var wall, setup time.Duration
		sims := 0
		failed := false
		for i, row := range design.Rows {
			cfg, err := pbConfig(row, i)
			if err != nil {
				return nil, err
			}
			res, err := o.run(b, tech, cfg)
			if err != nil {
				if aerr := o.cellErr(artifact, b, tech.Name(), cfg.Name, err); aerr != nil {
					return nil, aerr
				}
				failed = true
				break
			}
			cpis[i] = res.CPI()
			wall += res.Wall
			sims += res.Simulations
			if res.SetupWall > setup {
				setup = res.SetupWall // one-time cost, not per config
			}
		}
		if failed {
			continue // the point needs every config; drop it, keep the rest
		}
		o.Report().Completed()
		out.Points = append(out.Points, SvATPoint{
			Technique: tech.Name(),
			Family:    tech.Family(),
			SpeedPct:  100 * float64(wall+setup) / float64(refWall),
			SetupPct:  100 * float64(setup) / float64(refWall),
			Accuracy:  stats.Manhattan(cpis, refCPIs),
		})
	}
	sort.Slice(out.Points, func(i, j int) bool {
		if out.Points[i].Family != out.Points[j].Family {
			return familyOrder[out.Points[i].Family] < familyOrder[out.Points[j].Family]
		}
		return out.Points[i].Technique < out.Points[j].Technique
	})
	return out, nil
}

// Render formats the graph as the paper's series.
func (r *SvATResult) Render() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("Speed vs accuracy trade-off for %s over %d envelope configurations\n", r.Bench, r.Configs))
	sb.WriteString("(speed: % of reference simulation time, lower = faster; accuracy: Manhattan distance of CPI vectors, lower = better)\n\n")
	sb.WriteString(fmt.Sprintf("%-36s %-10s %9s %9s\n", "technique", "family", "speed%", "accuracy"))
	for _, p := range r.Points {
		sb.WriteString(fmt.Sprintf("%-36s %-10s %9.2f %9.3f\n", p.Technique, p.Family, p.SpeedPct, p.Accuracy))
	}
	return sb.String()
}

// FamilyOrdering returns the families sorted by their best (lowest)
// combined normalized score, weighting accuracy three times as heavily as
// speed since "accuracy is the pre-eminent characteristic [and] speed
// emerges as an important consideration when the accuracies of several
// techniques are similar" (§6.1). The paper's conclusion list is
// "SimPoint, SMARTS, FF X + Run Z, FF X + WU Y + Run Z, Run Z, reduced
// input sets".
func (r *SvATResult) FamilyOrdering() []core.Family {
	type agg struct {
		fam   core.Family
		score float64
	}
	const accuracyWeight = 3
	// Normalize speed and accuracy to [0,1] over the points.
	var maxS, maxA float64
	for _, p := range r.Points {
		if p.SpeedPct > maxS {
			maxS = p.SpeedPct
		}
		if p.Accuracy > maxA {
			maxA = p.Accuracy
		}
	}
	best := map[core.Family]float64{}
	for _, p := range r.Points {
		s := 0.0
		if maxS > 0 {
			s += p.SpeedPct / maxS
		}
		if maxA > 0 {
			s += accuracyWeight * p.Accuracy / maxA
		}
		if cur, ok := best[p.Family]; !ok || s < cur {
			best[p.Family] = s
		}
	}
	var out []agg
	for f, s := range best {
		out = append(out, agg{f, s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].score < out[j].score })
	fams := make([]core.Family, len(out))
	for i, a := range out {
		fams[i] = a.fam
	}
	return fams
}
