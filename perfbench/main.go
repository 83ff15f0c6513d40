// Command perfbench is the simulator's seeded benchmark. It runs one
// workload per process, because the checkpoint and trace stores are
// process globals: it draws the workload's inputs from --seed with its own
// generator, measures whole rounds of the workload's cells for --seconds,
// checks every output, and prints each metric by name and unit, the cells
// attempted and failed, a digest of every cell's sim.Stats and, as its
// last line, one JSON result. --trace 1 makes the traced run that gives
// the per-layer metrics instead. README.md describes the workloads and
// metrics; run it from the repository root with
//
//	bash perfbench/run.sh --workload config-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
)

// defaultSeed is the seed the README's reference figures use.
const defaultSeed = 1

// startTime is when the process began: the launcher's clock reading just
// before it executed this binary (PERFBENCH_EXEC_NS, in Unix ns), or else
// the earliest moment this package can observe.
var startTime = processStart()

func processStart() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_EXEC_NS"), 10, 64); err == nil {
		if t := time.Unix(0, ns); time.Since(t) >= 0 && time.Since(t) < time.Minute {
			return t
		}
	}
	return time.Now()
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
	{"cell_p50_ms", "ms"}, {"cell_p90_ms", "ms"},
}

// familyMetric names the Σ cell latency metric of each technique family.
var familyMetric = map[core.Family]string{
	core.FamilyReference: "core.reference_s", core.FamilySimPoint: "core.simpoint_s",
	core.FamilySMARTS: "core.smarts_s", core.FamilyReduced: "core.reduced_s",
	core.FamilyRunZ: "core.runz_s", core.FamilyFFRun: "core.ffrun_s", core.FamilyFFWURun: "core.ffwurun_s",
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{"cpu.core_ns", "ns"}, {"cpu.core_cycle_ns", "ns"},
	{"cpu.emulate_ns", "ns"}, {"cpu.record_ns", "ns"}, {"cpu.warm_ns", "ns"}, {"cpu.replay_warm_ns", "ns"},
	{"mem.access_ns", "ns"}, {"mem.warm_ns", "ns"},
	{"branch.predict_ns", "ns"},
	{"trace.lookup_ns", "ns"}, {"trace.hits", "count"}, {"trace.misses", "count"},
	{"trace.evictions", "count"}, {"trace.recorded_mb", "MB"}, {"trace.hit_ratio", "ratio"},
	{"ckpt.lookup_ns", "ns"}, {"ckpt.hits", "count"}, {"ckpt.misses", "count"}, {"ckpt.resident_mb", "MB"},
	{"sched.utilization", "ratio"}, {"sched.idle_s", "s"}, {"sched.cell_overhead_us", "us"},
	{"core.reference_s", "s"}, {"core.simpoint_s", "s"}, {"core.smarts_s", "s"}, {"core.reduced_s", "s"},
	{"core.runz_s", "s"}, {"core.ffrun_s", "s"}, {"core.ffwurun_s", "s"},
	{"simpoint.setup_s", "s"},
	{"bench.build_ms", "ms"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
	{"tracing.overhead_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 makes the traced run: per-layer metrics, spans and the layer ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := measure(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// maxMeasure bounds the measured part when the ten-beyond rule needs more
// rounds than --seconds allows, so that a run always ends within limits.
const maxMeasure = 120 * time.Second

// measure runs the workload: set-up, whole rounds until dur has passed
// (alternating untraced and traced rounds, then the layer ladder, when
// traced), and the checks.
func measure(ctx context.Context, w workload, seed uint64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	p, err := makePlan(w, seed)
	if err != nil {
		return nil, err
	}
	if err := buildPrograms(p, spans); err != nil {
		return nil, err
	}
	o := newOptions(ctx, p)
	setup := time.Since(startTime)

	begin := time.Now()
	roundsEnd := begin.Add(dur)
	if traced {
		roundsEnd = begin.Add(dur * 2 / 3) // the last third is the ladder's
	}
	t := &tally{oracle: newOracle(), seen: map[string]bool{}}
	for i := 0; ; i++ {
		var sp *spanLog
		if traced && i%2 == 1 {
			sp = spans
		}
		rd := runRound(ctx, p, o, sp, i)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.add(p, rd)
		now := time.Now()
		enough := traced && i >= 1 || !traced && tenBeyond(len(t.lat), 0.9)
		if now.After(roundsEnd) && enough {
			break
		}
		if now.Sub(begin) > maxMeasure {
			return nil, fmt.Errorf("%d cells after %v: too few for ten beyond p90", len(t.lat), now.Sub(begin).Round(time.Second))
		}
		o = newOptions(ctx, p)
	}

	vals := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		lv, problems, err := runLadder(ctx, p, spans, max(dur-time.Since(begin), time.Second))
		if err != nil {
			return nil, err
		}
		for _, msg := range problems {
			t.note(&t.problems, msg)
		}
		for k, v := range lv {
			vals[k] = v
		}
		layerValues(p, t.rounds, vals)
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := spans.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	} else {
		var walls, cpus []float64
		for _, rd := range t.rounds {
			walls = append(walls, rd.wall.Seconds())
			cpus = append(cpus, rd.cpu.Seconds())
		}
		sort.Float64s(t.lat)
		vals["setup_s"] = setup.Seconds()
		vals["wall_s"] = median(walls)
		vals["cpu_s"] = median(cpus)
		vals["peak_rss_mb"] = peakRSSMB()
		vals["cell_p50_ms"] = percentile(t.lat, 0.5)
		vals["cell_p90_ms"] = percentile(t.lat, 0.9)
	}

	res := &result{Attempted: len(t.rounds) * len(p.cells), Failed: t.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "workload %s seed %d: %d machines, %d cells per round, %d rounds\n",
		w.name, seed, len(p.machines), len(p.cells), len(t.rounds))
	fmt.Fprintf(out, "digest %s\n", t.digest)
	fmt.Fprintf(out, "cells attempted %d failed %d\n", res.Attempted, res.Failed)
	fmt.Fprint(out, "round wall_s, cpu_s:")
	for _, rd := range t.rounds {
		fmt.Fprintf(out, " %.3f,%.3f", rd.wall.Seconds(), rd.cpu.Seconds())
	}
	fmt.Fprintln(out)
	for _, c := range t.empty {
		fmt.Fprintf(out, "failed: %s measures an empty window\n", c)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-24s %14.6g %s\n", d.name, v, d.unit)
	}
	for i, msg := range t.problems {
		if i == 20 {
			fmt.Fprintf(out, "check failed: ... and %d more\n", len(t.problems)-i)
			break
		}
		fmt.Fprintf(out, "check failed: %s\n", msg)
	}
	res.Correct = len(t.problems) == 0
	return res, nil
}

// tally accumulates a run's rounds and what their checks found.
type tally struct {
	oracle   *oracle
	rounds   []round
	lat      []float64 // latencies of the untraced rounds' cells, ms
	failed   int
	problems []string // failed checks, each once
	empty    []string // bench/technique of the empty-window cells, each once
	seen     map[string]bool
	digest   string // round 0's
}

// note appends s to list unless the run has already noted it: rounds
// repeat their cells' results.
func (t *tally) note(list *[]string, s string) {
	if !t.seen[s] {
		t.seen[s] = true
		*list = append(*list, s)
	}
}

// add checks a round and keeps what the metrics need of it.
func (t *tally) add(p *plan, rd round) {
	v := checkRound(p, rd.log, t.oracle)
	t.failed += v.failed
	for _, msg := range v.problems {
		t.note(&t.problems, msg)
	}
	for _, c := range v.empty {
		t.note(&t.empty, c)
	}
	if d := digest(p, rd.log); len(t.rounds) == 0 {
		t.digest = d
	} else if d != t.digest {
		t.note(&t.problems, fmt.Sprintf("round %d digest %s differs from round 0 digest %s", len(t.rounds), d, t.digest))
	}
	if !rd.traced {
		for j, ran := range rd.log.ran {
			if ran {
				t.lat = append(t.lat, float64(rd.log.lat[j].Nanoseconds())/1e6)
			}
		}
	}
	rd.log.res = nil // checked; the statistics are no longer needed
	t.rounds = append(t.rounds, rd)
}

// buildPrograms builds and decodes every program the workload's cells run,
// as part of set-up. The cells build their own images again; these are
// the benchmark's, and their spans time bench.Build.
func buildPrograms(p *plan, spans *spanLog) error {
	seen := map[string]bool{}
	for _, c := range p.cells {
		in := bench.Reference
		if r, ok := c.tech.(core.Reduced); ok {
			in = r.Input
		}
		k := string(c.bench) + "/" + string(in)
		if seen[k] {
			continue
		}
		seen[k] = true
		id := spans.begin("bench.Build", k, 0, -1)
		prog, err := bench.Build(c.bench, in, scale)
		if err != nil {
			return err
		}
		cpu.NewEmu(prog)
		spans.end(id)
	}
	return nil
}

// layerValues derives the per-layer metrics the traced rounds give: the
// median over traced rounds of each counter, and the tracing overhead.
func layerValues(p *plan, rounds []round, vals map[string]float64) {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	var plain, tracedWalls []float64
	for _, rd := range rounds {
		if !rd.traced {
			plain = append(plain, rd.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, rd.wall.Seconds())
		add("trace.hits", float64(rd.trace.Hits))
		add("trace.misses", float64(rd.trace.Misses))
		add("trace.evictions", float64(rd.trace.Evictions))
		add("trace.recorded_mb", float64(rd.trace.RecordedBytes)/(1<<20))
		add("trace.hit_ratio", ratio(float64(rd.trace.Hits), float64(rd.trace.Hits+rd.trace.Misses)))
		add("ckpt.hits", float64(rd.ckpt.Hits))
		add("ckpt.misses", float64(rd.ckpt.Misses))
		add("ckpt.resident_mb", float64(rd.ckpt.Bytes)/(1<<20))
		var cellSum time.Duration
		fam := map[string]float64{}
		for i, c := range p.cells {
			cellSum += rd.log.lat[i]
			fam[familyMetric[c.tech.Family()]] += rd.log.lat[i].Seconds()
		}
		for _, name := range familyMetric {
			add(name, fam[name])
		}
		if p.w.direct {
			add("sched.utilization", 0) // no scheduler runs
			add("sched.idle_s", 0)
		} else {
			add("sched.utilization", rd.sched.Utilization())
			add("sched.idle_s", (time.Duration(workers)*rd.wall - cellSum).Seconds())
		}
		add("simpoint.setup_s", rd.setupWall.Seconds())
		add("go.alloc_mb", rd.allocMB)
		add("go.gc_cycles", float64(rd.gcCycles))
	}
	for k, v := range per {
		vals[k] = median(v)
	}
	vals["tracing.overhead_s"] = median(tracedWalls) - median(plain)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tenBeyond reports whether at least ten of n samples lie beyond the
// nearest-rank q-quantile: the rule for reporting that percentile.
func tenBeyond(n int, q float64) bool { return n > 0 && n-rank(n, q) >= 10 }

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}
