package main

import (
	"fmt"
	"math/bits"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
)

// rng is the benchmark's own generator (SplitMix64). Inputs are drawn from
// it rather than from internal/xrand, so no change to the simulator can
// change what a seed means.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffled returns xs in a random order (Fisher–Yates), reordering xs.
func shuffled[T any](r *rng, xs []T) []T {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	benches []bench.Name
	// machines is how many seed-drawn machines every benchmark runs on, in
	// one pass per round. Zero gives each benchmark ownPairs foldover pairs
	// of its own instead: a round then makes one pass per machine, each on
	// fresh stores, and pass k runs every benchmark on its machine k.
	machines int
	direct   bool // direct core.Reference runs instead of a RunPlan sweep
}

// workloads are the benchmark's three workloads; README.md gives the reason
// for each.
var workloads = []workload{
	{name: "config-sweep", benches: []bench.Name{bench.Gcc}, machines: 32},
	{name: "catalogue", benches: []bench.Name{
		bench.Gzip, bench.VprPlace, bench.VprRoute, bench.Gcc, bench.Art,
		bench.Mcf, bench.Equake, bench.Perlbmk, bench.Vortex, bench.Bzip2,
	}},
	{name: "detailed-mcf", benches: []bench.Name{bench.Mcf}, machines: 64, direct: true},
}

// ownPairs is how many foldover pairs each benchmark draws when it has
// machines of its own. With two, the first two cost factors take every
// combination of levels on each benchmark's four machines.
const ownPairs = 2

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is the instruction scale of every workload: the `figures` and
// `simrun` default (one paper-M is 200 simulated instructions).
var scale = sim.ScaleTest

// techniques is core.RepresentativeCatalogue as of the benchmark's
// definition, written out so that an edit to the simulator's default
// catalogue cannot change the workload.
func techniques(b bench.Name) []core.Technique {
	ts := []core.Technique{
		core.SimPoint{IntervalM: 10, MaxK: 100, WarmupM: 1},
		core.SimPoint{IntervalM: 100, MaxK: 10, WarmupM: 0},
		core.SMARTS{U: 1000, W: 2000},
		core.SMARTS{U: 10000, W: 20000},
		core.RunZ{Z: 500},
		core.RunZ{Z: 2000},
		core.FFRun{X: 1000, Z: 1000},
		core.FFRun{X: 4000, Z: 1000},
		core.FFWURun{X: 999, Y: 1, Z: 1000},
		core.FFWURun{X: 3900, Y: 100, Z: 1000},
	}
	for _, in := range []bench.InputSet{bench.Small, bench.Large, bench.Train} {
		if bench.Has(b, in) {
			ts = append(ts, core.Reduced{Input: in})
		}
	}
	return ts
}

// costFactors are the PB parameters that move the simulator's host time
// most, from a Plackett–Burman screen of host time (gcc and mcf reference,
// gcc SMARTS and Run Z cells over the 88-run folded design). The first
// ones are the largest.
var costFactors = []string{
	"mem-first-lat", "l2-size-kb", "rob-entries", "mem-follow-lat",
	"iq-entries", "l2-block", "lsq-entries", "l1d-block",
	"dtlb-entries", "int-div-lat", "int-mult-units", "l2-lat",
	"l1d-assoc", "int-mult-lat", "l1d-size-kb",
}

// drawPairs draws n foldover pairs of Plackett–Burman envelope machines:
// every parameter of a drawn machine is set low or high from the seed, and
// its mirror sets the opposite, as in the paper's folded PB design. Every
// parameter is therefore high in exactly half of the machines.
//
// When n is a power of two, the cost factors are stratified as well. In
// the drawn machines they take columns of the Sylvester Hadamard matrix of
// order n, with seed-drawn signs; with the mirrors these are columns of
// the matrix of order 2n. The first log2(n)+1 cost factors take that
// matrix's generator columns, in a seed-drawn order, so every combination
// of their levels occurs equally often; the rest take the other columns,
// so every two cost factors are balanced against each other. The host
// cost of a round then varies far less from seed to seed.
func drawPairs(r *rng, n int) ([][2]sim.Config, error) {
	params := sim.Params()
	rows := make([][]bool, n)
	for i := range rows {
		rows[i] = make([]bool, len(params))
		for j := range rows[i] {
			rows[i][j] = r.next()&1 == 1
		}
	}
	if n&(n-1) == 0 {
		var gens, others []int
		for col := 0; col < n; col++ {
			if col&(col-1) == 0 {
				gens = append(gens, col) // 0 and the powers of two
			} else {
				others = append(others, col)
			}
		}
		cols := append(shuffled(r, gens), shuffled(r, others)...)
		for k, name := range costFactors {
			if k >= len(cols) {
				break
			}
			j, ok := paramIndex(params, name)
			if !ok {
				return nil, fmt.Errorf("perfbench: no PB parameter %q", name)
			}
			flip := r.next()&1 == 1
			for i, row := range rows {
				row[j] = hadamardPlus(i, cols[k]) != flip
			}
		}
	}
	pairs := make([][2]sim.Config, n)
	for i, row := range rows {
		mirror := make([]bool, len(row))
		for j, v := range row {
			mirror[j] = !v
		}
		for k, levels := range [][]bool{row, mirror} {
			c, err := sim.PBConfig(levels)
			if err != nil {
				return nil, err
			}
			c.Name = fmt.Sprintf("cfg-%02d", 2*i+k)
			pairs[i][k] = c
		}
	}
	return pairs, nil
}

// hadamardPlus reports whether entry (i, j) of a Sylvester Hadamard
// matrix is +1: the parity of the bits i and j share.
func hadamardPlus(i, j int) bool { return bits.OnesCount(uint(i&j))%2 == 0 }

func paramIndex(ps []sim.Param, name string) (int, bool) {
	for i, p := range ps {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}

// cell is one technique run on one benchmark and one configuration.
type cell struct {
	bench bench.Name
	tech  core.Technique
	cfg   sim.Config
}

func (c cell) String() string { return string(c.bench) + "/" + c.tech.Name() + "/" + c.cfg.Name }

// plan is one round of a workload: its machines and its cells. The cells
// of each pass are in the order `figures` plans a Plackett–Burman sweep
// (per benchmark, the reference on every machine, then each technique on
// every machine); passes[k] is the index in cells where pass k begins.
type plan struct {
	w        workload
	machines []sim.Config
	cells    []cell
	passes   []int
}

// makePlan draws a workload's inputs from the seed.
func makePlan(w workload, seed uint64) (*plan, error) {
	r := &rng{s: seed}
	p := &plan{w: w}
	if w.machines > 0 {
		pairs, err := drawPairs(r, w.machines/2)
		if err != nil {
			return nil, err
		}
		for _, pr := range pairs {
			p.machines = append(p.machines, pr[0], pr[1])
		}
		p.machines = shuffled(r, p.machines)
		p.passes = []int{0}
		for _, b := range w.benches {
			p.add(b, p.machines)
		}
		return p, nil
	}
	own := make([][]sim.Config, len(w.benches))
	for i, b := range w.benches {
		pairs, err := drawPairs(r, ownPairs)
		if err != nil {
			return nil, err
		}
		for _, pr := range pairs {
			for _, c := range pr {
				c.Name = fmt.Sprintf("%s-m%d", b, len(own[i]))
				own[i] = append(own[i], c)
			}
		}
	}
	for k := range own[0] {
		p.passes = append(p.passes, len(p.cells))
		for i, b := range w.benches {
			p.machines = append(p.machines, own[i][k])
			p.add(b, own[i][k:k+1])
		}
	}
	return p, nil
}

// add appends benchmark b's cells on the given machines.
func (p *plan) add(b bench.Name, machines []sim.Config) {
	for _, c := range machines {
		p.cells = append(p.cells, cell{bench: b, tech: core.Reference{}, cfg: c})
	}
	if p.w.direct {
		return
	}
	for _, t := range techniques(b) {
		for _, c := range machines {
			p.cells = append(p.cells, cell{bench: b, tech: t, cfg: c})
		}
	}
}

// pass returns the cell index range of pass k.
func (p *plan) pass(k int) (lo, hi int) {
	lo, hi = p.passes[k], len(p.cells)
	if k+1 < len(p.passes) {
		hi = p.passes[k+1]
	}
	return lo, hi
}
