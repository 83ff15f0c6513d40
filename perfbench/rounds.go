package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/experiments/sched"
	"repro/internal/simpoint"
	"repro/internal/trace"
)

// workers is the number of worker goroutines every workload uses: the
// sweeps' scheduler pool and detailed-mcf's direct runners.
const workers = 2

// span is one timed call from the benchmark into a layer. Spans of one
// round share its Round; Parent names the enclosing span (0 for none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run exits. A nil
// log records nothing, which is how untraced rounds run.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name, label string, parent uint64, round int) uint64 {
	if l == nil {
		return 0
	}
	now := time.Since(startTime).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Round: round, Name: name, Label: label, Start: now})
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id uint64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(startTime).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// write stores the spans as a JSON array at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// roundLog collects what every Technique.Run call of one round returned.
// Each cell index is written by the one goroutine that runs the cell and
// read after the round has joined its workers.
type roundLog struct {
	lat    []time.Duration
	res    []core.Result
	err    []error
	ran    []bool
	spans  *spanLog
	parent uint64
	round  int
}

func newRoundLog(n int, spans *spanLog, round int) *roundLog {
	return &roundLog{
		lat: make([]time.Duration, n), res: make([]core.Result, n),
		err: make([]error, n), ran: make([]bool, n), spans: spans, round: round,
	}
}

// timed wraps a cell's technique so the benchmark times, and captures,
// every call the engine makes into core.Technique.Run. Name and Family
// pass through, so the engine keys the cell exactly as it keys the bare
// technique.
type timed struct {
	core.Technique
	i   int
	log *roundLog
	cel cell
}

// Run implements core.Technique.
func (t timed) Run(ctx core.Context) (core.Result, error) {
	id := t.log.spans.begin("core.Technique.Run", t.cel.String(), t.log.parent, t.log.round)
	start := time.Now()
	res, err := t.Technique.Run(ctx)
	d := time.Since(start)
	t.log.spans.end(id)
	t.log.lat[t.i], t.log.res[t.i], t.log.err[t.i], t.log.ran[t.i] = d, res, err, true
	return res, err
}

// round is the measured outcome of running every cell of a plan once.
type round struct {
	traced bool
	wall   time.Duration // the passes' wall time
	cpu    time.Duration // process user+system CPU over the passes
	log    *roundLog

	// Counters the program exposes, read at the end of each pass and
	// summed over the round's passes.
	sched     sched.Telemetry
	trace     trace.Stats
	ckpt      ckpt.Stats
	allocMB   float64
	gcCycles  uint32
	setupWall time.Duration // Σ Result.SetupWall
}

// newOptions creates the state one pass of a sweep runs in: the options
// `figures` uses by default (trace store "auto" with its 256 MiB budget,
// timelines on, a cancellable sweep context) on two workers, with the
// trace store installed. Each pass gets fresh options, so that no pass
// reuses what an earlier one recorded. A direct workload needs none (nil).
func newOptions(ctx context.Context, p *plan) *experiments.Options {
	if p.w.direct {
		return nil
	}
	o := experiments.DefaultOptions()
	o.Scale = scale
	o.Benches = p.w.benches
	o.Parallel = workers
	o.Ctx = ctx
	o.Engine()
	return o
}

// release drops a pass's stores and memoized SimPoint plans, and returns
// freed memory to the OS, so the next pass starts as cold as a fresh
// process.
func release(o *experiments.Options) {
	if o != nil {
		o.Close()
	}
	simpoint.ResetCache()
	debug.FreeOSMemory()
}

// runRound runs every cell of the plan once: each pass with its own
// options, the first with o. Only the passes themselves are timed;
// creating and releasing options between them is not.
func runRound(ctx context.Context, p *plan, o *experiments.Options, spans *spanLog, idx int) round {
	log := newRoundLog(len(p.cells), spans, idx)
	rd := round{traced: spans != nil, log: log}
	for k := range p.passes {
		if k > 0 {
			o = newOptions(ctx, p)
		}
		lo, hi := p.pass(k)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		start := time.Now()
		if p.w.direct {
			log.parent = spans.begin("round", p.w.name, 0, idx)
			runDirect(ctx, p, log, lo, hi)
		} else {
			cells := make([]sched.Cell, 0, hi-lo)
			for i := lo; i < hi; i++ {
				c := p.cells[i]
				phase := "technique"
				if c.tech.Family() == core.FamilyReference {
					phase = "reference"
				}
				cells = append(cells, sched.Cell{Artifact: p.w.name, Phase: phase, Bench: c.bench,
					Technique: timed{Technique: c.tech, i: i, log: log, cel: c}, Config: c.cfg})
			}
			log.parent = spans.begin("experiments.Options.RunPlan", p.w.name, 0, idx)
			rd.sched.Merge(o.RunPlan(cells))
		}
		spans.end(log.parent)
		rd.wall += time.Since(start)
		rd.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		rd.allocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		rd.gcCycles += ms1.NumGC - ms0.NumGC
		ts, cs := core.TraceStats(), core.CheckpointStats()
		rd.trace.Hits += ts.Hits
		rd.trace.Misses += ts.Misses
		rd.trace.Evictions += ts.Evictions
		rd.trace.RecordedBytes += ts.RecordedBytes
		rd.ckpt.Hits += cs.Hits
		rd.ckpt.Misses += cs.Misses
		rd.ckpt.Bytes = max(rd.ckpt.Bytes, cs.Bytes)
		release(o)
	}
	for _, r := range log.res {
		rd.setupWall += r.SetupWall
	}
	return rd
}

// runDirect runs the plan's cells as direct Technique.Run calls, as
// `simrun` makes them, on the benchmark's two worker goroutines.
func runDirect(ctx context.Context, p *plan, log *roundLog, lo, hi int) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi || ctx.Err() != nil {
					return
				}
				c := p.cells[i]
				t := timed{Technique: c.tech, i: i, log: log, cel: c}
				_, _ = t.Run(core.Context{Bench: c.bench, Config: c.cfg, Scale: scale, Ctx: ctx}) // t records the outcome
			}
		}()
	}
	wg.Wait()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
