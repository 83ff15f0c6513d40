// Package sched is the deterministic parallel scheduler of the experiment
// stack. The experiment drivers enumerate their work as declarative Cell
// values (a plan); a Pool executes a plan on a bounded worker set and
// returns one Outcome per cell, indexed by the cell's position in the
// plan, so an assembly pass can rebuild tables and figures byte-identical
// to a serial run at any worker count.
//
// Determinism contract: a cell's outcome depends only on the cell itself
// (techniques seed their own xrand streams, and the engine's retry jitter
// is keyed by the run's cache key), never on which worker ran it or in
// which order. Each worker additionally owns a deterministically-seeded
// RNG stream — derived from the pool seed and the worker index — so no
// two workers ever share xrand state, and scheduling decisions that want
// randomness stay reproducible.
//
// Fault contract: a panicking cell loses only itself (the panic is
// recovered into its outcome's error); a cancelled context stops new
// work immediately and drains the remaining queue by marking every
// not-yet-started cell with the context's error, so Run always returns
// exactly len(cells) outcomes — nothing is lost or duplicated.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// RetryClass declares how a cell's failures should be handled, so the
// plan — not the code path that happens to execute it — decides the
// policy. The experiments layer maps classes onto engine retry policies.
type RetryClass int

// The retry classes.
const (
	// RetryDefault applies the executing engine's configured policy.
	RetryDefault RetryClass = iota
	// RetryNone makes the first failure final regardless of the engine's
	// policy (for cells whose artifact drops the whole series on any
	// failure anyway, where retries only delay the verdict).
	RetryNone
)

// String names the class.
func (r RetryClass) String() string {
	switch r {
	case RetryDefault:
		return "default"
	case RetryNone:
		return "none"
	default:
		return fmt.Sprintf("retry(%d)", int(r))
	}
}

// Cell is one schedulable unit of experiment work: run one technique on
// one benchmark under one machine configuration. Cells are pure data —
// enumerating them does no simulation — so a driver's whole sweep can be
// planned, deduplicated, and scheduled before any work starts.
type Cell struct {
	// Artifact names the table or figure the cell feeds ("F1", "F5",
	// "SvAT(gcc)", "ARCH", ...), for telemetry and failure reports.
	Artifact string

	// Phase is the cell's role within its artifact: "reference" cells
	// are the baselines every other cell is measured against,
	// "technique" cells are the measurements themselves.
	Phase string

	Bench     bench.Name
	Technique core.Technique
	Config    sim.Config

	// Profile requests the execution profile (the §5.2 characterization
	// runs on a dedicated profiling engine; the flag is part of the
	// cell's identity).
	Profile bool

	// Retry selects the failure-handling class for this cell.
	Retry RetryClass
}

// Label renders the cell's human identity for telemetry, journal events,
// and failure reports: artifact/bench/technique/config.
func (c Cell) Label() string {
	tech := "?"
	if c.Technique != nil {
		tech = c.Technique.Name()
	}
	cfg := c.Config.Name
	if cfg == "" {
		cfg = "unnamed"
	}
	return c.Artifact + "/" + string(c.Bench) + "/" + tech + "/" + cfg
}

// Outcome is the result of one cell, tagged with its plan index and the
// worker that produced it.
type Outcome struct {
	Cell   Cell
	Index  int           // position in the plan; the assembly key
	Res    core.Result   // zero when Err != nil
	Err    error         // run failure, recovered panic, or ctx.Err() for drained cells
	Wall   time.Duration // the cell's own wall-clock on its worker
	Worker int           // index of the worker that ran the cell (-1 if drained)
	Cost   CostReport    // the cell's host-cost attribution (zero for drained cells)
}

// CostReport attributes one cell's execution cost: what the host spent
// (wall, CPU, allocation), what simulation work it bought (instruction
// counts, ns per instruction), and how the caching layers behaved while
// it ran. The aggregation layer above (experiments.CostSummary) folds
// these into per-technique and per-benchmark cost tables.
//
// Field provenance splits in two. Wall and the instruction counts are
// per-cell exact and independent of scheduling. CPUNS, AllocBytes, and
// the checkpoint deltas are process-global counters bracketed around the
// cell — exact at one worker, attributed-by-overlap at N (a concurrent
// cell's allocations land in whichever bracket is open), so they are
// cost attribution, not accounting identities.
type CostReport struct {
	WallNS int64 `json:"wall_ns"`
	// CPUNS is the user-CPU delta over the cell, at the GC-cycle
	// granularity /cpu/classes exposes (short cells may read 0).
	CPUNS      int64 `json:"cpu_ns"`
	AllocBytes int64 `json:"alloc_bytes"`

	SimulatedInstr  uint64 `json:"simulated_instr"`
	DetailedInstr   uint64 `json:"detailed_instr"`
	FunctionalInstr uint64 `json:"functional_instr"`
	// NSPerInstr is wall nanoseconds per simulated instruction, the
	// paper's cost axis (0 when the cell simulated nothing).
	NSPerInstr float64 `json:"ns_per_instr"`

	CkptHits   int64 `json:"ckpt_hits"`
	CkptMisses int64 `json:"ckpt_misses"`

	// Trace-store deltas bracketed around the cell, like the checkpoint
	// deltas above: replay hits, recording misses, and bytes recorded
	// while the cell ran.
	TraceHits   int64 `json:"trace_hits"`
	TraceMisses int64 `json:"trace_misses"`
	TraceBytes  int64 `json:"trace_bytes"`

	// Retries and Dedup come from the RunFunc via Worker.Notes: how many
	// transient-failure retries the engine spent, and whether the result
	// was answered by cache/single-flight instead of a fresh run.
	Retries int64 `json:"retries"`
	Dedup   bool  `json:"dedup,omitempty"`

	// TimelineIntervals counts the interval samples the cell's timeline
	// recorder captured (0 when recording was off). The count is a pure
	// function of the cell's deterministic instruction stream, so unlike
	// the host-cost fields above it is scheduling-independent.
	TimelineIntervals int64 `json:"timeline_intervals,omitempty"`
}

// CellNotes carries per-cell annotations from the RunFunc back to the
// pool's cost accounting. The pool zeroes the executing worker's Notes
// before each cell; the RunFunc may fill them; the pool folds them into
// the outcome's CostReport. Worker-local, so no synchronization.
type CellNotes struct {
	Retries int64
	Dedup   bool
}

// Worker is one executor of a pool. Its RNG stream is seeded from the
// pool seed and the worker index, so streams are disjoint across workers
// and identical across runs — no worker ever shares xrand state.
type Worker struct {
	Index int
	RNG   *xrand.RNG

	// Notes is the RunFunc's per-cell cost annotation scratch (see
	// CellNotes); the pool resets it before every cell.
	Notes CellNotes

	host *obs.HostReader // per-worker, so cost reads never allocate or contend
}

// RunFunc executes one cell on a worker. The experiments layer supplies
// an engine-backed implementation; tests supply stubs.
type RunFunc func(ctx context.Context, w *Worker, c Cell) (core.Result, error)

// Pool executes plans on a bounded worker set. The zero value is usable:
// it sizes itself to GOMAXPROCS, uses obs.Default, and a fixed seed.
type Pool struct {
	// Workers bounds concurrency; <= 0 uses GOMAXPROCS.
	Workers int

	// Obs receives the scheduler's instrumentation (sched_cells_total,
	// sched_cell_failures_total, sched_cells_inflight, sched_queue_depth,
	// sched_workers, sched_cell_seconds). Nil uses obs.Default.
	Obs *obs.Registry

	// Seed derives the per-worker RNG streams (0 uses a fixed default),
	// so two pools with the same seed give worker i the same stream.
	Seed uint64

	// Journal receives the pool's flight-recorder events (cell start,
	// finish, drain) tagged with the executing worker's index. Nil uses
	// obs.DefaultJournal, which is disabled by default and free when off.
	Journal *obs.Journal
}

// defaultSeed spells "sched"; any fixed value works, it only has to be
// stable across runs.
const defaultSeed = 0x7363686564

func (p *Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (p *Pool) registry() *obs.Registry {
	if p.Obs != nil {
		return p.Obs
	}
	return obs.Default
}

func (p *Pool) journal() *obs.Journal {
	if p.Journal != nil {
		return p.Journal
	}
	return obs.DefaultJournal
}

// NewWorker builds worker i's executor with its deterministic RNG
// stream. Exposed so tests can assert stream disjointness and stability.
func (p *Pool) NewWorker(i int) *Worker {
	seed := p.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	// Offset by a large odd constant per worker; xrand.New splitmixes the
	// seed, so nearby seeds still yield uncorrelated streams.
	return &Worker{
		Index: i,
		RNG:   xrand.New(seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))),
		host:  obs.NewHostReader(),
	}
}

// Telemetry summarizes one pool execution.
type Telemetry struct {
	Workers   int           `json:"workers"`
	Cells     int           `json:"cells"`
	Failed    int           `json:"failed"`       // cells whose RunFunc returned an error
	Cancelled int           `json:"cancelled"`    // cells drained unstarted after cancellation
	Wall      time.Duration `json:"wall_ns"`      // pool wall-clock, queue open to last cell done
	CellWall  time.Duration `json:"cell_wall_ns"` // sum of per-cell wall-clock across workers
}

// Concurrency is the mean number of cells in flight: summed per-cell
// wall time divided by the pool's wall-clock (1.0 = no overlap). On an
// idle host with enough cores it equals the wall-clock speedup over a
// one-worker pool; on an oversubscribed host it overstates speedup,
// because time-sliced cells accumulate wall time without finishing
// sooner — measured serial-versus-parallel walls of the same plan are
// the honest speedup figure.
func (t Telemetry) Concurrency() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.CellWall) / float64(t.Wall)
}

// Utilization is the share of worker capacity spent running cells.
func (t Telemetry) Utilization() float64 {
	if t.Wall <= 0 || t.Workers <= 0 {
		return 0
	}
	return float64(t.CellWall) / (float64(t.Wall) * float64(t.Workers))
}

// String formats the telemetry as a one-line CLI summary.
func (t Telemetry) String() string {
	s := fmt.Sprintf("sched: %d cells on %d workers in %v (cell wall %v, %.2fx concurrency, %.0f%% utilization)",
		t.Cells, t.Workers, t.Wall.Round(time.Millisecond),
		t.CellWall.Round(time.Millisecond), t.Concurrency(), 100*t.Utilization())
	if t.Failed+t.Cancelled > 0 {
		s += fmt.Sprintf(", %d failed, %d cancelled", t.Failed, t.Cancelled)
	}
	return s
}

// Merge accumulates another execution into t (for CLIs that schedule
// several plans and report one line).
func (t *Telemetry) Merge(u Telemetry) {
	if u.Workers > t.Workers {
		t.Workers = u.Workers
	}
	t.Cells += u.Cells
	t.Failed += u.Failed
	t.Cancelled += u.Cancelled
	t.Wall += u.Wall
	t.CellWall += u.CellWall
}

// Run executes every cell of the plan on the pool and returns one
// outcome per cell, in plan order. Concurrency is bounded by Workers;
// duplicate cells are safe (the engine's single-flight collapses them)
// but plans should dedup for queue hygiene. Run never returns fewer
// outcomes than cells: after cancellation the remaining queue is drained
// with ctx.Err() outcomes.
func (p *Pool) Run(ctx context.Context, cells []Cell, run RunFunc) ([]Outcome, Telemetry) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cells)
	outs := make([]Outcome, n)
	workers := p.workers()
	if workers > n && n > 0 {
		workers = n
	}
	tel := Telemetry{Workers: workers, Cells: n}
	if n == 0 {
		return outs, tel
	}

	r := p.registry()
	mCells := r.Counter("sched_cells_total")
	mFail := r.Counter("sched_cell_failures_total")
	mInflight := r.Gauge("sched_cells_inflight")
	mQueue := r.Gauge("sched_queue_depth")
	mWorkers := r.Gauge("sched_workers")
	mLatency := r.Histogram("sched_cell_seconds", obs.LatencyBuckets)
	mWorkers.Set(float64(workers))

	queue := make(chan int, n)
	for i := range cells {
		queue <- i
	}
	close(queue)
	mQueue.Set(float64(n))

	var queued atomic.Int64
	queued.Store(int64(n))
	var cellWall, failed, cancelled atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wk *Worker) {
			defer wg.Done()
			jnl := p.journal()
			for idx := range queue {
				mQueue.Set(float64(queued.Add(-1)))
				if err := ctx.Err(); err != nil {
					// Drain: the campaign is being torn down, so the
					// cell is marked cancelled without running.
					outs[idx] = Outcome{Cell: cells[idx], Index: idx, Err: err, Worker: -1}
					cancelled.Add(1)
					if jnl.Enabled() {
						jnl.Record(obs.Event{Kind: obs.EvSchedDrain, Actor: int32(wk.Index),
							Subject: cells[idx].Label(), Detail: err.Error(), N: int64(idx)})
					}
					continue
				}
				mInflight.Add(1)
				if jnl.Enabled() {
					jnl.Record(obs.Event{Kind: obs.EvCellStart, Actor: int32(wk.Index),
						Subject: cells[idx].Label(), N: int64(idx)})
				}
				wk.Notes = CellNotes{}
				ckHits0, ckMiss0 := core.CheckpointCounters()
				trHits0, trMiss0, trBytes0 := core.TraceCounters()
				host0 := wk.host.Read()
				t0 := time.Now()
				res, err := runCell(ctx, wk, cells[idx], run, jnl)
				wall := time.Since(t0)
				host1 := wk.host.Read()
				trHits1, trMiss1, trBytes1 := core.TraceCounters()
				ckHits1, ckMiss1 := core.CheckpointCounters()
				mInflight.Add(-1)
				mCells.Inc()
				mLatency.Observe(wall.Seconds())
				cellWall.Add(int64(wall))
				if err != nil {
					failed.Add(1)
					mFail.Inc()
				}
				if jnl.Enabled() {
					ev := obs.Event{Kind: obs.EvCellFinish, Actor: int32(wk.Index),
						Subject: cells[idx].Label(), N: int64(idx), DurNS: int64(wall)}
					if err != nil {
						ev.Detail = err.Error()
					}
					jnl.Record(ev)
				}
				cost := CostReport{
					WallNS:          int64(wall),
					CPUNS:           host1.UserCPUNS - host0.UserCPUNS,
					AllocBytes:      int64(host1.AllocBytes - host0.AllocBytes),
					DetailedInstr:   res.DetailedInstr,
					FunctionalInstr: res.FunctionalInstr,
					SimulatedInstr:  res.DetailedInstr + res.FunctionalInstr,
					CkptHits:        ckHits1 - ckHits0,
					CkptMisses:      ckMiss1 - ckMiss0,
					TraceHits:       trHits1 - trHits0,
					TraceMisses:     trMiss1 - trMiss0,
					TraceBytes:      trBytes1 - trBytes0,
					Retries:         wk.Notes.Retries,
					Dedup:           wk.Notes.Dedup,

					TimelineIntervals: int64(len(res.Timeline)),
				}
				if cost.SimulatedInstr > 0 {
					cost.NSPerInstr = float64(cost.WallNS) / float64(cost.SimulatedInstr)
				}
				outs[idx] = Outcome{Cell: cells[idx], Index: idx, Res: res, Err: err,
					Wall: wall, Worker: wk.Index, Cost: cost}
			}
		}(p.NewWorker(w))
	}
	wg.Wait()

	tel.Wall = time.Since(start)
	tel.CellWall = time.Duration(cellWall.Load())
	tel.Failed = int(failed.Load())
	tel.Cancelled = int(cancelled.Load())
	return outs, tel
}

// runCell invokes run with panic isolation: a crashing cell is converted
// into its own error instead of killing the worker (which would strand
// the rest of the queue).
func runCell(ctx context.Context, w *Worker, c Cell, run RunFunc, jnl *obs.Journal) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &CellPanicError{Cell: c, Value: v, Stack: debug.Stack()}
			if jnl.Enabled() {
				jnl.Record(obs.Event{Kind: obs.EvCellPanic, Actor: int32(w.Index),
					Subject: c.Label(), Detail: fmt.Sprint(v)})
			}
		}
	}()
	return run(ctx, w, c)
}

// CellPanicError is a panic recovered by the pool itself (the engine
// already recovers technique panics; this catches crashes in the glue
// around it).
type CellPanicError struct {
	Cell  Cell
	Value any
	Stack []byte
}

// Error implements error.
func (e *CellPanicError) Error() string {
	return fmt.Sprintf("sched: cell %s/%s panicked: %v", e.Cell.Artifact, e.Cell.Bench, e.Value)
}

// Map runs fn over items on the pool's workers and returns the results
// in item order, plus a parallel slice of per-item errors. It is the
// generic face of the scheduler for work that is not technique-shaped
// (cmd/workload's per-input characterization rows). The same drain
// semantics apply: after cancellation, remaining items get ctx.Err().
func Map[T, R any](ctx context.Context, p *Pool, items []T, fn func(ctx context.Context, w *Worker, item T) (R, error)) ([]R, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(items)
	res := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return res, errs
	}
	workers := p.workers()
	if workers > n {
		workers = n
	}
	queue := make(chan int, n)
	for i := range items {
		queue <- i
	}
	close(queue)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wk *Worker) {
			defer wg.Done()
			for idx := range queue {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					continue
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							errs[idx] = fmt.Errorf("sched: item %d panicked: %v", idx, v)
						}
					}()
					res[idx], errs[idx] = fn(ctx, wk, items[idx])
				}()
			}
		}(p.NewWorker(w))
	}
	wg.Wait()
	return res, errs
}
