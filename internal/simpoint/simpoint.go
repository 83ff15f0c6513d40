// Package simpoint implements the SimPoint representative-sampling
// technique [Sherwood02]: the dynamic instruction stream is split into
// fixed-length intervals, each summarized by its basic-block vector (BBV);
// the BBVs are randomly projected to low dimension and clustered with
// k-means; the interval closest to each cluster centroid becomes a
// simulation point, weighted by its cluster's share of the execution.
//
// Profiling and clustering depend only on the program (not on the machine
// configuration), so Plans are cached: characterizations that simulate the
// same benchmark under dozens of configurations pay the clustering cost
// once, exactly as an architect reuses published simulation points.
package simpoint

import (
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kmeans"
	"repro/internal/program"
)

// Config controls plan construction.
type Config struct {
	// IntervalInstr is the interval length in instructions.
	IntervalInstr uint64
	// MaxK bounds the number of simulation points ("max_k" in the paper).
	MaxK int
	// Seeds is the number of random k-means restarts per k (the paper used
	// SimPoint 1.0 with 7 random seeds).
	Seeds int
	// MaxIter bounds Lloyd iterations (the paper used 100).
	MaxIter int
	// ProjectDim is the random-projection dimensionality (SimPoint uses 15).
	ProjectDim int
	// ProjectSeed is the projection seed ("seedproj = 1" in Table 1).
	ProjectSeed uint64
	// BICThreshold selects the smallest k reaching this fraction of the
	// best BIC score (SimPoint's rule; typically 0.9).
	BICThreshold float64
}

// DefaultConfig returns the Table 1 settings for the given interval and
// max_k. The seed count is the paper's 7; callers on a budget may lower it.
func DefaultConfig(intervalInstr uint64, maxK int) Config {
	return Config{
		IntervalInstr: intervalInstr,
		MaxK:          maxK,
		Seeds:         7,
		MaxIter:       100,
		ProjectDim:    15,
		ProjectSeed:   1,
		BICThreshold:  0.9,
	}
}

// Point is one chosen simulation point.
type Point struct {
	Interval int     // interval index
	Start    uint64  // first instruction of the interval
	Weight   float64 // cluster share of total execution
}

// Plan is the benchmark-specific output of SimPoint phase analysis.
type Plan struct {
	Cfg        Config
	Intervals  int
	K          int
	Points     []Point
	TotalInstr uint64

	// IntervalProfiles[i] is the BBEF/BBV profile of interval i, reused to
	// produce the weighted measured profile of the technique without
	// re-profiling.
	IntervalProfiles []*cpu.Profile
}

// WeightedProfile returns the technique's measured execution profile: the
// per-point profiles combined with their weights and scaled to the full
// run length.
func (p *Plan) WeightedProfile(prog *program.Program) *cpu.Profile {
	out := cpu.NewProfile(prog)
	scale := float64(p.TotalInstr) / float64(p.Cfg.IntervalInstr)
	for _, pt := range p.Points {
		out.AddWeighted(p.IntervalProfiles[pt.Interval], pt.Weight*scale)
	}
	return out
}

// BuildPlan profiles the program end to end and runs the clustering. The
// program is executed functionally from reset; the caller's emulator state
// is not touched.
func BuildPlan(prog *program.Program, cfg Config) (*Plan, error) {
	if cfg.IntervalInstr == 0 {
		return nil, fmt.Errorf("simpoint: zero interval")
	}
	if cfg.MaxK < 1 {
		return nil, fmt.Errorf("simpoint: MaxK must be >= 1")
	}
	emu := cpu.NewEmu(prog)
	var profiles []*cpu.Profile
	var total uint64
	for !emu.Halted {
		p := cpu.NewProfile(prog)
		n := emu.RunProfile(cfg.IntervalInstr, p)
		if n == 0 {
			break
		}
		total += n
		// Keep the final partial interval only if it is at least half full;
		// SimPoint drops trailing fragments.
		if n >= cfg.IntervalInstr/2 {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("simpoint: program shorter than one interval")
	}

	// Build normalized BBVs and project.
	vecs := make([][]float64, len(profiles))
	for i, p := range profiles {
		v := make([]float64, len(p.Instrs))
		for b, c := range p.Instrs {
			v[b] = float64(c) / float64(p.Total)
		}
		vecs[i] = v
	}
	proj := kmeans.Project(vecs, cfg.ProjectDim, cfg.ProjectSeed)

	maxK := cfg.MaxK
	if maxK > len(proj) {
		maxK = len(proj)
	}
	res, err := kmeans.Best(proj, maxK, cfg.Seeds, cfg.MaxIter, cfg.BICThreshold, cfg.ProjectSeed+100)
	if err != nil {
		return nil, fmt.Errorf("simpoint: clustering: %w", err)
	}
	reps := kmeans.Representative(proj, res)

	// Cold-start bias guard: BBVs are code signatures and cannot see that
	// the program's first intervals run on cold caches, so a representative
	// drawn from the initialization region mis-times its whole cluster. On
	// full SPEC runs the region is a vanishing fraction of all intervals;
	// at this repository's scales it is not, so when a cluster's chosen
	// representative falls in the first 1/16 (~6%) of intervals and the
	// cluster has members outside that region, the closest such member is
	// used instead (see EXPERIMENTS.md).
	warmRegion := len(proj) / 16
	if warmRegion < 1 {
		warmRegion = 1
	}
	for c, rep := range reps {
		if rep < 0 || rep >= warmRegion {
			continue
		}
		best := -1
		bestD := 0.0
		for i, p := range proj {
			if res.Assignment[i] != c || i < warmRegion {
				continue
			}
			d := 0.0
			for dim := range p {
				diff := p[dim] - res.Centroids[c][dim]
				d += diff * diff
			}
			if best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		if best != -1 {
			reps[c] = best
		}
	}

	plan := &Plan{
		Cfg:              cfg,
		Intervals:        len(profiles),
		K:                res.K,
		TotalInstr:       total,
		IntervalProfiles: profiles,
	}
	n := float64(len(proj))
	for c, rep := range reps {
		if rep < 0 {
			continue
		}
		plan.Points = append(plan.Points, Point{
			Interval: rep,
			Start:    uint64(rep) * cfg.IntervalInstr,
			Weight:   float64(res.Sizes[c]) / n,
		})
	}
	return plan, nil
}

// plans memoizes plans per program image and configuration. Concurrent
// callers of one key wait for a single build (single flight); a build
// that fails is forgotten, so a later caller retries it.
var plans struct {
	mu    sync.Mutex
	calls map[planKey]*planCall
}

// planKey identifies a plan: the program image (program.Fingerprint, so
// two programs that share a name and code length but differ in code or
// data never share a plan) and every setting that shapes the clustering.
type planKey struct {
	prog uint64
	cfg  Config
}

// planCall is one plan build; done closes when plan and err are final.
type planCall struct {
	done chan struct{}
	plan *Plan
	err  error
}

// PlanFor returns a cached plan for the program, building it on first use.
// Callers that arrive while the plan is being built wait for that build
// and share its result.
func PlanFor(prog *program.Program, cfg Config) (*Plan, error) {
	key := planKey{prog: prog.Fingerprint(), cfg: cfg}
	plans.mu.Lock()
	if c, ok := plans.calls[key]; ok {
		plans.mu.Unlock()
		<-c.done
		return c.plan, c.err
	}
	if plans.calls == nil {
		plans.calls = make(map[planKey]*planCall)
	}
	c := &planCall{done: make(chan struct{}), err: fmt.Errorf("simpoint: plan build for %s panicked", prog.Name)}
	plans.calls[key] = c
	plans.mu.Unlock()

	defer func() {
		if c.plan == nil {
			plans.mu.Lock()
			if plans.calls[key] == c {
				delete(plans.calls, key)
			}
			plans.mu.Unlock()
		}
		close(c.done)
	}()
	c.plan, c.err = BuildPlan(prog, cfg)
	return c.plan, c.err
}

// ResetCache forgets every memoized plan and every build in flight (tests
// and benchmarks use this to measure cold costs). Builds already running
// still deliver their plan to the callers waiting on them.
func ResetCache() {
	plans.mu.Lock()
	plans.calls = nil
	plans.mu.Unlock()
}
