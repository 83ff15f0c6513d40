package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/characterize"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// ProfileCharRow is one technique's execution-profile comparison for a
// benchmark (§5.2): the chi-squared test values against the reference's
// BBEF and BBV distributions, the similarity verdicts, and code coverage.
type ProfileCharRow struct {
	Bench     bench.Name
	Technique string
	Family    core.Family

	BBEFValue   float64
	BBVValue    float64
	BBEFSimilar bool
	BBVSimilar  bool
	Coverage    float64 // fraction of static blocks touched
}

// ProfileCharacterization compares every technique's measured execution
// profile to the reference's. Profiles are configuration-independent, so
// the base configuration is used once per technique. A failed technique
// run loses only its own row; a failed reference loses its benchmark
// (recorded in o.Report()).
func ProfileCharacterization(o *Options, alpha float64) ([]ProfileCharRow, error) {
	// Plan + schedule on the dedicated profiling engine (no-op when
	// Parallel is 0); the loops below assemble from memoized outcomes.
	o.RunPlan(ProfilePlan(o))
	cfg := sim.BaseConfig()

	var rows []ProfileCharRow
	for _, b := range o.Benches {
		ref, err := o.profileRun(b, core.Reference{}, cfg)
		if err != nil {
			if aerr := o.cellErr("PROFILE", b, "reference", cfg.Name, err); aerr != nil {
				return nil, aerr
			}
			o.Report().Skip("PROFILE", b, "", "reference profile failed; benchmark dropped")
			continue
		}
		for _, tech := range o.Techniques(b) {
			res, err := o.profileRun(b, tech, cfg)
			if err != nil {
				if aerr := o.cellErr("PROFILE", b, tech.Name(), cfg.Name, err); aerr != nil {
					return nil, aerr
				}
				continue
			}
			if _, ok := tech.(core.Reduced); ok {
				// A reduced input runs different code volumes; its profile
				// is over the same static program only when code images
				// match, which they do not in general — compare coverage
				// only, with the chi-squared fields marked dissimilar, as
				// the paper treats reduced inputs as different programs.
				o.Report().Completed()
				rows = append(rows, ProfileCharRow{
					Bench: b, Technique: tech.Name(), Family: tech.Family(),
					BBEFValue: -1, BBVValue: -1,
					Coverage: characterize.CodeCoverage(res.Profile),
				})
				continue
			}
			// A technique whose window measured nothing has an empty
			// profile: its cell fails like a failed run.
			pr, err := characterize.Profile(ref.Profile, res.Profile, alpha)
			if err != nil {
				err = fmt.Errorf("experiments: profile of %s on %s: %w", tech.Name(), b, err)
				if aerr := o.cellErr("PROFILE", b, tech.Name(), cfg.Name, err); aerr != nil {
					return nil, aerr
				}
				continue
			}
			o.Report().Completed()
			rows = append(rows, ProfileCharRow{
				Bench: b, Technique: tech.Name(), Family: tech.Family(),
				BBEFValue: pr.BBEF.Statistic, BBVValue: pr.BBV.Statistic,
				BBEFSimilar: pr.BBEF.Similar, BBVSimilar: pr.BBV.Similar,
				Coverage: characterize.CodeCoverage(res.Profile),
			})
		}
	}
	return rows, nil
}

// RenderProfileChar formats the §5.2 execution-profile comparison.
func RenderProfileChar(rows []ProfileCharRow) string {
	var sb strings.Builder
	sb.WriteString("Execution-profile characterization (§5.2): chi-squared test values vs reference\n")
	sb.WriteString("(smaller = more similar; 'similar' = below the critical value; reduced inputs are\n")
	sb.WriteString("different programs, so only their code coverage is reported)\n\n")
	sb.WriteString(fmt.Sprintf("%-10s %-36s %12s %12s %8s %8s %9s\n",
		"benchmark", "technique", "BBEF chi2", "BBV chi2", "BBEFsim", "BBVsim", "coverage"))
	for _, r := range rows {
		bbef, bbv := fmt.Sprintf("%.1f", r.BBEFValue), fmt.Sprintf("%.1f", r.BBVValue)
		sim1, sim2 := fmt.Sprint(r.BBEFSimilar), fmt.Sprint(r.BBVSimilar)
		if r.BBEFValue < 0 {
			bbef, bbv, sim1, sim2 = "-", "-", "-", "-"
		}
		sb.WriteString(fmt.Sprintf("%-10s %-36s %12s %12s %8s %8s %8.1f%%\n",
			r.Bench, r.Technique, bbef, bbv, sim1, sim2, 100*r.Coverage))
	}
	return sb.String()
}

// ArchCharRow is one technique's architecture-level characterization for a
// benchmark (§5.2): the Euclidean distance of its normalized metric vector
// (IPC, branch accuracy, L1D and L2 hit rates over the Table 3 configs)
// from the reference's.
type ArchCharRow struct {
	Bench     bench.Name
	Technique string
	Family    core.Family
	Distance  float64
}

// ArchCharacterization runs the architecture-level characterization over
// the Table 3 configurations. A failed technique loses only its own row;
// a failed reference loses its benchmark (recorded in o.Report()).
func ArchCharacterization(o *Options) ([]ArchCharRow, error) {
	// Plan + schedule (no-op when Parallel is 0).
	o.RunPlan(ArchPlan(o))
	cfgs := sim.ArchConfigs()
	configs := cfgs[:]

	var rows []ArchCharRow
	for _, b := range o.Benches {
		refM, err := characterize.ArchMetrics(b, core.Reference{}, configs, o.run)
		if err != nil {
			if aerr := o.cellErr("ARCH", b, "reference", "", err); aerr != nil {
				return nil, aerr
			}
			o.Report().Skip("ARCH", b, "", "reference metrics failed; benchmark dropped")
			continue
		}
		for _, tech := range o.Techniques(b) {
			tm, err := characterize.ArchMetrics(b, tech, configs, o.run)
			if err != nil {
				if aerr := o.cellErr("ARCH", b, tech.Name(), "", err); aerr != nil {
					return nil, aerr
				}
				continue
			}
			ar, err := characterize.Architectural(refM, tm)
			if err != nil {
				return nil, err
			}
			o.Report().Completed()
			rows = append(rows, ArchCharRow{
				Bench: b, Technique: tech.Name(), Family: tech.Family(),
				Distance: ar.Distance,
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Bench != rows[j].Bench {
			return rows[i].Bench < rows[j].Bench
		}
		if rows[i].Family != rows[j].Family {
			return familyOrder[rows[i].Family] < familyOrder[rows[j].Family]
		}
		return rows[i].Technique < rows[j].Technique
	})
	return rows, nil
}

// RenderArchChar formats the architecture-level characterization.
func RenderArchChar(rows []ArchCharRow) string {
	var sb strings.Builder
	sb.WriteString("Architecture-level characterization (§5.2): Euclidean distance of normalized\n")
	sb.WriteString("metric vectors (IPC, branch accuracy, L1D/L2 hit rates over Table 3 configs)\n\n")
	sb.WriteString(fmt.Sprintf("%-10s %-36s %-10s %9s\n", "benchmark", "technique", "family", "distance"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-10s %-36s %-10s %9.4f\n", r.Bench, r.Technique, r.Family, r.Distance))
	}
	return sb.String()
}

// CPIAttrRow is one technique's per-component CPI error attribution for a
// benchmark: the signed delta of each CPI-stack component against the
// reference on the base configuration, and the dominant error source.
type CPIAttrRow struct {
	Bench     bench.Name
	Technique string
	Family    core.Family

	RefCPI   float64
	TechCPI  float64
	Delta    [cpu.NumCPIComponents]float64
	TotalErr float64
	Dominant cpu.CPIComponent
}

// CPIAttribution diffs every technique's CPI stack component-by-component
// against the reference's on the base configuration — the telemetry
// layer's answer to "which microarchitectural events does this technique
// mis-sample". A failed technique loses only its own row; a failed
// reference loses its benchmark (recorded in o.Report()).
func CPIAttribution(o *Options) ([]CPIAttrRow, error) {
	// Plan + schedule (no-op when Parallel is 0).
	o.RunPlan(AttributionPlan(o))
	cfg := sim.BaseConfig()

	var rows []CPIAttrRow
	for _, b := range o.Benches {
		ref, err := o.run(b, core.Reference{}, cfg)
		if err != nil {
			if aerr := o.cellErr("ATTR", b, "reference", cfg.Name, err); aerr != nil {
				return nil, aerr
			}
			o.Report().Skip("ATTR", b, "", "reference CPI stack failed; benchmark dropped")
			continue
		}
		for _, tech := range o.Techniques(b) {
			res, err := o.run(b, tech, cfg)
			if err != nil {
				if aerr := o.cellErr("ATTR", b, tech.Name(), cfg.Name, err); aerr != nil {
					return nil, aerr
				}
				continue
			}
			attr, err := characterize.Attribute(ref.Stats, res.Stats)
			if err != nil {
				err = fmt.Errorf("experiments: attribution of %s on %s: %w", tech.Name(), b, err)
				if aerr := o.cellErr("ATTR", b, tech.Name(), cfg.Name, err); aerr != nil {
					return nil, aerr
				}
				continue
			}
			o.Report().Completed()
			row := CPIAttrRow{
				Bench: b, Technique: tech.Name(), Family: tech.Family(),
				Delta: attr.Delta, TotalErr: attr.TotalErr, Dominant: attr.Dominant,
			}
			for i := range attr.RefCPI {
				row.RefCPI += attr.RefCPI[i]
				row.TechCPI += attr.TechCPI[i]
			}
			rows = append(rows, row)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Bench != rows[j].Bench {
			return rows[i].Bench < rows[j].Bench
		}
		if rows[i].Family != rows[j].Family {
			return familyOrder[rows[i].Family] < familyOrder[rows[j].Family]
		}
		return rows[i].Technique < rows[j].Technique
	})
	return rows, nil
}

// RenderCPIAttribution formats the attribution table: one row per
// technique with the signed per-component CPI deltas versus reference.
func RenderCPIAttribution(rows []CPIAttrRow) string {
	var sb strings.Builder
	sb.WriteString("Per-component CPI error attribution: signed CPI-stack deltas vs reference\n")
	sb.WriteString("(base configuration; components sum to the total CPI error; 'dominant' is\n")
	sb.WriteString("the component with the largest absolute delta)\n\n")
	sb.WriteString(fmt.Sprintf("%-10s %-36s %8s", "benchmark", "technique", "CPIerr"))
	for c := cpu.CPIComponent(0); c < cpu.NumCPIComponents; c++ {
		sb.WriteString(fmt.Sprintf(" %10s", c.String()))
	}
	sb.WriteString("  dominant\n")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-10s %-36s %+8.4f", r.Bench, r.Technique, r.TotalErr))
		for _, d := range r.Delta {
			sb.WriteString(fmt.Sprintf(" %+10.4f", d))
		}
		sb.WriteString("  " + r.Dominant.String() + "\n")
	}
	return sb.String()
}
