package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/watchdog"
)

// Stats is the aggregate outcome of a measurement window: the architectural
// metrics the paper reports (CPI/IPC, branch prediction accuracy, cache hit
// rates) plus the raw event counts they derive from.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	BranchLookups    uint64
	BranchMispredict uint64
	RASPops          uint64
	RASMisses        uint64
	BTBLookups       uint64
	BTBMisses        uint64

	L1I mem.CacheStats
	L1D mem.CacheStats
	L2  mem.CacheStats

	ITLBMisses uint64
	DTLBMisses uint64

	Core cpu.CoreStats
}

// CPI returns cycles per instruction (0 when the window is empty).
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IPC returns instructions per cycle (0 when the window is empty).
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// BranchAccuracy returns the conditional-branch direction prediction
// accuracy, or 1 when no branches executed.
func (s Stats) BranchAccuracy() float64 {
	if s.BranchLookups == 0 {
		return 1
	}
	return 1 - float64(s.BranchMispredict)/float64(s.BranchLookups)
}

// MetricVector returns the four architectural metrics of the paper's
// architecture-level characterization (§4.3): IPC, branch prediction
// accuracy, L1 D-cache hit rate, and L2 cache hit rate.
func (s Stats) MetricVector() [4]float64 {
	return [4]float64{
		s.IPC(),
		s.BranchAccuracy(),
		s.L1D.HitRate(),
		s.L2.HitRate(),
	}
}

// Add accumulates o into s (used to combine SimPoint / SMARTS windows).
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Instructions += o.Instructions
	s.BranchLookups += o.BranchLookups
	s.BranchMispredict += o.BranchMispredict
	s.RASPops += o.RASPops
	s.RASMisses += o.RASMisses
	s.BTBLookups += o.BTBLookups
	s.BTBMisses += o.BTBMisses
	addCache := func(d *mem.CacheStats, c mem.CacheStats) {
		d.Accesses += c.Accesses
		d.Misses += c.Misses
		d.Writebacks += c.Writebacks
		d.Prefetches += c.Prefetches
		d.AssumedHits += c.AssumedHits
	}
	addCache(&s.L1I, o.L1I)
	addCache(&s.L1D, o.L1D)
	addCache(&s.L2, o.L2)
	s.ITLBMisses += o.ITLBMisses
	s.DTLBMisses += o.DTLBMisses
	cs := &s.Core
	os := o.Core
	cs.Cycles += os.Cycles
	cs.Committed += os.Committed
	for i := range cs.ClassCounts {
		cs.ClassCounts[i] += os.ClassCounts[i]
	}
	cs.TrivialSeen += os.TrivialSeen
	cs.TrivialSimplified += os.TrivialSimplified
	cs.TrivialEliminated += os.TrivialEliminated
	cs.LoadsForwarded += os.LoadsForwarded
	cs.FetchStallCycles += os.FetchStallCycles
	cs.ROBFullStalls += os.ROBFullStalls
	cs.IQFullStalls += os.IQFullStalls
	cs.LSQFullStalls += os.LSQFullStalls
	for i := range cs.CycleStack {
		cs.CycleStack[i] += os.CycleStack[i]
	}
}

// AddWeighted accumulates o scaled by w, for SimPoint's weighted points.
//
// Rounding contract: every counter is scaled and rounded to the nearest
// integer independently (round-half-up), so each accumulated counter is
// within 0.5 of its exact weighted value per call. Ratios derived from the
// rounded counters (CPI, hit rates) can therefore drift from the exactly
// weighted ratios by O(k/N) after k calls over windows of N events —
// negligible for the paper's window sizes, but not exactly zero. Callers
// needing exact ratio arithmetic should weight the float ratios instead.
// TestAddWeightedTelescopes pins this behavior.
func (s *Stats) AddWeighted(o Stats, w float64) {
	scale := func(v uint64) uint64 { return uint64(w*float64(v) + 0.5) }
	t := Stats{
		Cycles:           scale(o.Cycles),
		Instructions:     scale(o.Instructions),
		BranchLookups:    scale(o.BranchLookups),
		BranchMispredict: scale(o.BranchMispredict),
		RASPops:          scale(o.RASPops),
		RASMisses:        scale(o.RASMisses),
		BTBLookups:       scale(o.BTBLookups),
		BTBMisses:        scale(o.BTBMisses),
		ITLBMisses:       scale(o.ITLBMisses),
		DTLBMisses:       scale(o.DTLBMisses),
	}
	sc := func(c mem.CacheStats) mem.CacheStats {
		return mem.CacheStats{
			Accesses:    scale(c.Accesses),
			Misses:      scale(c.Misses),
			Writebacks:  scale(c.Writebacks),
			Prefetches:  scale(c.Prefetches),
			AssumedHits: scale(c.AssumedHits),
		}
	}
	t.L1I = sc(o.L1I)
	t.L1D = sc(o.L1D)
	t.L2 = sc(o.L2)
	t.Core.Cycles = scale(o.Core.Cycles)
	t.Core.Committed = scale(o.Core.Committed)
	for i := range t.Core.ClassCounts {
		t.Core.ClassCounts[i] = scale(o.Core.ClassCounts[i])
	}
	t.Core.TrivialSeen = scale(o.Core.TrivialSeen)
	t.Core.TrivialSimplified = scale(o.Core.TrivialSimplified)
	t.Core.TrivialEliminated = scale(o.Core.TrivialEliminated)
	t.Core.LoadsForwarded = scale(o.Core.LoadsForwarded)
	// The CPI stack must keep its conservation invariant (components sum
	// to Cycles) through weighting, which independent rounding would
	// break. The non-base components round independently and base absorbs
	// the remainder; if rounding pushed the non-base sum past the scaled
	// cycle count, the excess is trimmed in component order.
	var rest uint64
	for i := 1; i < int(cpu.NumCPIComponents); i++ {
		t.Core.CycleStack[i] = scale(o.Core.CycleStack[i])
		rest += t.Core.CycleStack[i]
	}
	if rest <= t.Core.Cycles {
		t.Core.CycleStack[cpu.CPIBase] = t.Core.Cycles - rest
	} else {
		excess := rest - t.Core.Cycles
		for i := 1; i < int(cpu.NumCPIComponents) && excess > 0; i++ {
			cut := t.Core.CycleStack[i]
			if cut > excess {
				cut = excess
			}
			t.Core.CycleStack[i] -= cut
			excess -= cut
		}
		t.Core.CycleStack[cpu.CPIBase] = 0
	}
	s.Add(t)
}

// Runner owns one configured machine executing one program. It exposes the
// execution modes that the simulation techniques compose: pure functional
// fast-forwarding, functional warming, detailed (timed) execution, and
// measurement windows with delta statistics.
type Runner struct {
	Prog *program.Program
	Cfg  Config

	Emu  *cpu.Emu
	Core *cpu.Core
	Hier *mem.Hierarchy
	Pred *branch.Predictor
	BTB  *branch.BTB
	RAS  *branch.RAS

	// Trace, when set, receives one span per execution phase
	// (fast-forward, functional-warm, detailed, measure) with wall-clock
	// and instruction counts; nesting follows the caller's open spans.
	Trace *obs.Tracer

	// Metrics, when set, accumulates per-phase instruction counters
	// (sim_instructions_total{phase=...}) and wall-clock histograms
	// (sim_phase_seconds{phase=...}). Both fields default to nil: the
	// uninstrumented paths add no overhead.
	Metrics *obs.Registry

	// Ctx, when set, bounds the run: every execution phase polls the
	// context between instruction chunks of at most CheckEvery, so a
	// cancelled or deadline-expired context stops the machine within a
	// bounded instruction budget. A nil Ctx (the default) keeps the
	// phases as single uninterruptible calls with zero polling overhead.
	Ctx context.Context

	// CheckEvery is the instruction budget between cancellation checks
	// when Ctx is set; zero uses DefaultCheckEvery.
	CheckEvery uint64

	// Timeline, when set, is the interval recorder attached to the core
	// (see cpu.Timeline). It samples on committed-instruction boundaries
	// of the detailed cycle stream only, so its samples are deterministic
	// across worker counts and the trace/checkpoint store settings.
	// Attach with AttachTimeline; a nil Timeline costs the core one
	// pointer check per cycle.
	Timeline *cpu.Timeline

	stopErr error // first context error observed; sticky

	// ahead is the virtual skip-ahead: functional-stream instructions
	// accounted for without emulating them, either deferred (SkipTo, to
	// be materialized on demand) or already consumed from a recorded
	// trace (EndReplay). Position() = Emu.Count + ahead.
	ahead uint64

	// replay is the active trace replay source, nil while emulating.
	replay *cpu.Replayer

	// savedDetect remembers Emu.DetectTrivial across a recording span,
	// which forces classification on so traces are config independent.
	savedDetect bool

	// Heartbeat plumbing for the hang watchdog: resolved lazily from Ctx
	// on the first interrupted() poll, then beaten once per chunk. A
	// context without a heartbeat costs one value lookup per run.
	hb        *watchdog.Heartbeat
	hbChecked bool

	markCore cpu.CoreStats
	markHier mem.Snapshot
	markPred struct{ lookups, miss uint64 }
	markBTB  struct{ lookups, miss uint64 }
	markRAS  struct{ pops, miss uint64 }
}

// NewRunner builds a machine for the program under the configuration.
func NewRunner(p *program.Program, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	pred, err := branch.NewPredictor(cfg.Pred)
	if err != nil {
		return nil, err
	}
	btb, err := branch.NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	ras, err := branch.NewRAS(cfg.RASEntries)
	if err != nil {
		return nil, err
	}
	emu := cpu.NewEmu(p)
	// The trivial-computation enhancement needs operand-level
	// classification from the functional stream.
	emu.DetectTrivial = cfg.Core.TC != cpu.TCOff
	core, err := cpu.NewCore(cfg.Core, emu, hier, pred, btb, ras)
	if err != nil {
		return nil, err
	}
	return &Runner{
		Prog: p, Cfg: cfg,
		Emu: emu, Core: core, Hier: hier, Pred: pred, BTB: btb, RAS: ras,
	}, nil
}

// instrumented reports whether any observability sink is attached. The
// process-wide flight recorder counts as one: when it is enabled the
// phases take the measured path so their boundary events carry real
// wall-clock; when it is off (the default) the check is a single atomic
// load and the uninstrumented fast path is unchanged.
func (r *Runner) instrumented() bool {
	return r.Trace != nil || r.Metrics != nil || obs.DefaultJournal.Enabled()
}

// DefaultCheckEvery is the default cancellation polling interval, in
// instructions. It is small enough that a cancelled run stops within a few
// hundred microseconds of host time at the repository's simulation speeds,
// and large enough that the per-chunk bookkeeping is one poll per 65,536
// instructions. perfbench's config-sweep runs every cell on this path,
// under a cancellable context.
const DefaultCheckEvery = 1 << 16

// checkEvery returns the effective polling interval.
func (r *Runner) checkEvery() uint64 {
	if r.CheckEvery > 0 {
		return r.CheckEvery
	}
	return DefaultCheckEvery
}

// interrupted polls the context (if any), latching the first error seen.
// It doubles as the hang watchdog's progress heartbeat: the chunk loop
// lands here once per CheckEvery instructions, so beating on every poll
// proves the machine is still retiring instructions. A stalled run — one
// that stops reaching this poll — stops beating, and the watchdog cancels
// the context this same poll observes.
func (r *Runner) interrupted() bool {
	if r.stopErr != nil {
		return true
	}
	if r.Ctx == nil {
		return false
	}
	if !r.hbChecked {
		r.hbChecked = true
		r.hb = watchdog.FromContext(r.Ctx)
	}
	r.hb.Beat() // nil-safe no-op without a watchdog
	if err := r.Ctx.Err(); err != nil {
		r.stopErr = err
		return true
	}
	return false
}

// Err returns the context error that interrupted the run, if any. Phases
// cut short by cancellation return their partial instruction counts; the
// caller distinguishes "program finished early" from "run cancelled" by
// checking Err.
func (r *Runner) Err() error {
	r.interrupted() // latch a cancellation even if no phase ran since
	return r.stopErr
}

// chunked executes n instructions through step, polling the context for
// cancellation every checkEvery instructions. With no context attached the
// single direct call is preserved (no chunking, no polling). step receives
// the chunk size and the hard remainder of the phase; detailed steps cap
// commit only at the hard target so the chunked cycle stream is identical
// to the single-call one (they may overshoot the chunk, never the phase).
func (r *Runner) chunked(n uint64, step func(c, hard uint64) uint64) uint64 {
	if r.Ctx == nil {
		return step(n, n)
	}
	every := r.checkEvery()
	var got uint64
	for got < n && !r.interrupted() {
		c := n - got
		hard := c
		if c > every {
			c = every
		}
		k := step(c, hard)
		got += k
		if k < c {
			break // program halted inside the chunk
		}
	}
	return got
}

// finishPhase closes a phase span, records the phase's registry series,
// and stamps a phase-boundary event into the flight recorder.
func (r *Runner) finishPhase(sp *obs.Span, phase string, n uint64, start time.Time) {
	sp.AddInstr(n)
	sp.End()
	if r.Metrics != nil {
		r.Metrics.Counter("sim_instructions_total", obs.L("phase", phase)).Add(n)
		r.Metrics.Histogram("sim_phase_seconds", obs.LatencyBuckets, obs.L("phase", phase)).
			Observe(time.Since(start).Seconds())
	}
	if j := obs.DefaultJournal; j.Enabled() {
		j.Record(obs.Event{Kind: obs.EvPhase, Actor: -1, Subject: phase,
			N: int64(n), DurNS: int64(time.Since(start))})
	}
}

// FastForward functionally executes n instructions with cold
// micro-architectural state (the FF phase of the truncated-execution
// techniques). It returns the number actually executed.
func (r *Runner) FastForward(n uint64) uint64 {
	step := func(c, _ uint64) uint64 { return r.Emu.Run(c) }
	if !r.instrumented() {
		return r.chunked(n, step)
	}
	sp, start := r.Trace.StartSpan("fast-forward"), time.Now()
	got := r.chunked(n, step)
	r.finishPhase(sp, "fast-forward", got, start)
	return got
}

// FunctionalWarm functionally executes n instructions while warming caches,
// TLBs, and branch prediction structures (the SMARTS warming mode). While a
// replay source is active the warm stream comes from the recorded trace,
// producing the identical sequence of warming updates without emulating.
func (r *Runner) FunctionalWarm(n uint64) uint64 {
	warmer := cpu.Warmer{Hier: r.Hier, Pred: r.Pred, BTB: r.BTB, RAS: r.RAS}
	step := func(c, _ uint64) uint64 { return r.Emu.RunWarm(c, warmer) }
	if r.replay != nil {
		step = func(c, _ uint64) uint64 { return r.replay.RunWarm(c, warmer) }
	}
	if !r.instrumented() {
		return r.chunked(n, step)
	}
	sp, start := r.Trace.StartSpan("functional-warm"), time.Now()
	got := r.chunked(n, step)
	r.finishPhase(sp, "functional-warm", got, start)
	return got
}

// Detailed runs the cycle-level model until n further instructions commit.
func (r *Runner) Detailed(n uint64) uint64 {
	step := func(c, hard uint64) uint64 { return r.Core.RunChunk(c, hard) }
	if !r.instrumented() {
		return r.chunked(n, step)
	}
	sp, start := r.Trace.StartSpan("detailed"), time.Now()
	got := r.chunked(n, step)
	r.finishPhase(sp, "detailed", got, start)
	return got
}

// Drain completes all in-flight instructions without fetching new ones.
func (r *Runner) Drain() { r.Core.Drain() }

// Done reports whether the program has halted and committed completely.
func (r *Runner) Done() bool { return r.Core.Done() }

// Mark begins a measurement window.
func (r *Runner) Mark() {
	r.markCore = r.Core.Stats
	r.markHier = r.Hier.Snap()
	r.markPred.lookups, r.markPred.miss = r.Pred.Lookups, r.Pred.Mispredict
	r.markBTB.lookups, r.markBTB.miss = r.BTB.Lookups, r.BTB.Misses
	r.markRAS.pops, r.markRAS.miss = r.RAS.Pops, r.RAS.PopMisses
}

// Window returns the statistics accumulated since the last Mark.
func (r *Runner) Window() Stats {
	core := r.Core.Stats.Sub(r.markCore)
	hd := r.Hier.Delta(r.markHier)
	return Stats{
		Cycles:           core.Cycles,
		Instructions:     core.Committed,
		BranchLookups:    r.Pred.Lookups - r.markPred.lookups,
		BranchMispredict: r.Pred.Mispredict - r.markPred.miss,
		BTBLookups:       r.BTB.Lookups - r.markBTB.lookups,
		BTBMisses:        r.BTB.Misses - r.markBTB.miss,
		RASPops:          r.RAS.Pops - r.markRAS.pops,
		RASMisses:        r.RAS.PopMisses - r.markRAS.miss,
		L1I:              hd.L1I,
		L1D:              hd.L1D,
		L2:               hd.L2,
		ITLBMisses:       hd.ITLBMisses,
		DTLBMisses:       hd.DTLBMisses,
		Core:             core,
	}
}

// MeasureDetailed is the common "Mark, run detailed for n, Window" pattern.
// When a tracer is attached the window renders as a "measure" span with the
// window's architectural statistics annotated.
func (r *Runner) MeasureDetailed(n uint64) Stats {
	sp := r.Trace.StartSpan("measure")
	start := time.Now()
	r.Mark()
	r.Detailed(n)
	w := r.Window()
	annotateWindow(sp, w)
	sp.End()
	if j := obs.DefaultJournal; j.Enabled() {
		j.Record(obs.Event{Kind: obs.EvPhase, Actor: -1, Subject: "measure",
			N: int64(w.Instructions), DurNS: int64(time.Since(start))})
	}
	return w
}

// RunToCompletion executes the whole remaining program in detailed mode and
// returns the statistics of that window (the reference simulation). With a
// context attached, each 1<<20-instruction window is chunked for
// cancellation polling; the chunks' hard commit targets all point at the
// window boundary, so the cycle stream matches the uninstrumented loop.
func (r *Runner) RunToCompletion() Stats {
	const window = uint64(1 << 20)
	step := func(c, hard uint64) uint64 { return r.Core.RunChunk(c, hard) }
	runAll := func() {
		if r.Ctx == nil {
			for !r.Core.Done() {
				r.Core.Run(window)
			}
			return
		}
		for !r.Core.Done() && !r.interrupted() {
			r.chunked(window, step)
		}
	}
	if !r.instrumented() {
		r.Mark()
		runAll()
		return r.Window()
	}
	sp, start := r.Trace.StartSpan("run-to-completion"), time.Now()
	r.Mark()
	runAll()
	w := r.Window()
	sp.SetAttr(obs.Int("cycles", int64(w.Cycles)))
	sp.SetAttr(obs.Float("cpi", w.CPI()))
	r.finishPhase(sp, "detailed", w.Instructions, start)
	return w
}

// annotateWindow attaches a measurement window's headline statistics to a
// span (per-window stats of the trace: cycles and CPI; the instruction
// count arrives via AddInstr so host MIPS is derived uniformly).
func annotateWindow(sp *obs.Span, w Stats) {
	if sp == nil {
		return
	}
	sp.AddInstr(w.Instructions)
	sp.SetAttr(obs.Int("cycles", int64(w.Cycles)))
	sp.SetAttr(obs.Float("cpi", w.CPI()))
}

// AttachTimeline creates and attaches an interval recorder with the given
// stride (in committed instructions; < 1 uses cpu.DefaultTimelineStride)
// and returns it. Samples land on stride multiples of the core's committed
// count, so the timeline is a pure function of the detailed cycle stream.
func (r *Runner) AttachTimeline(stride uint64) *cpu.Timeline {
	t := cpu.NewTimeline(stride, 0)
	r.Timeline = t
	r.Core.SetTimeline(t)
	return t
}

// TimelineSamples returns the attached recorder's resident samples
// oldest-first, or nil when no recorder is attached.
func (r *Runner) TimelineSamples() []cpu.TimelineSample {
	if r.Timeline == nil {
		return nil
	}
	return r.Timeline.Samples()
}

// SetAssumeHit toggles the assume-hit cold-start policy across the memory
// hierarchy (the paper's SimPoint warm-up option "assume cache hit").
func (r *Runner) SetAssumeHit(on bool) { r.Hier.SetAssumeHit(on) }

// Checkpoint snapshots the architectural state (see cpu.Checkpoint). The
// pipeline must be empty: take checkpoints only between detailed windows,
// after a Drain. The machine must also be materialized — not replaying and
// with no pending virtual skip — since a snapshot captures only what the
// emulator actually executed.
func (r *Runner) Checkpoint() (*cpu.Checkpoint, error) {
	if n := r.Core.InFlight(); n != 0 {
		return nil, fmt.Errorf("sim: checkpoint with %d instructions in flight", n)
	}
	if r.replay != nil || r.ahead != 0 {
		return nil, fmt.Errorf("sim: checkpoint at virtual position %d (emulated %d): materialize first",
			r.Position(), r.Emu.Count)
	}
	return r.Emu.Snapshot(), nil
}

// Position returns the absolute position in the functional instruction
// stream: instructions the emulator executed plus those virtually skipped
// or consumed from a recorded trace. Techniques track stream progress
// through Position, never Emu.Count directly, so replayed and emulated
// runs see identical positions.
func (r *Runner) Position() uint64 { return r.Emu.Count + r.ahead }

// SkipTo advances the virtual position to target without executing
// anything — O(1). Callers use it when a recorded trace region will
// supply the skipped stream; materializing the architectural state at the
// virtual position (ClearAhead + fast-forward) is only needed if
// emulation must resume there.
func (r *Runner) SkipTo(target uint64) {
	if p := r.Position(); target > p {
		r.ahead += target - p
	}
}

// Ahead returns the pending virtual skip (instructions Position is ahead
// of the emulator).
func (r *Runner) Ahead() uint64 { return r.ahead }

// ClearAhead discards the virtual skip, returning its size. The caller
// must then bring the emulator to the old Position (checkpoint restore or
// fast-forward) before executing further.
func (r *Runner) ClearAhead() uint64 {
	a := r.ahead
	r.ahead = 0
	return a
}

// BeginReplay switches the machine onto a recorded trace: the timing core
// (and FunctionalWarm) consume recs instead of the emulator. The records
// must continue the stream exactly at Position().
func (r *Runner) BeginReplay(recs []trace.Rec) {
	r.replay = cpu.NewReplayer(r.Emu, recs)
	r.Core.SetSource(r.replay)
}

// EndReplay switches back to the emulator, accounting every replayed
// record as virtually skipped so Position stays exact. When the replayed
// stream consumed the program's halt, the exhausted replayer stays
// installed as the core's source: the stream is over, and Done must keep
// reporting that — the emulator, never run this far, still looks alive.
func (r *Runner) EndReplay() {
	if r.replay == nil {
		return
	}
	r.ahead += r.replay.Consumed()
	halted := r.replay.SrcDone()
	r.replay = nil
	if !halted {
		r.Core.SetSource(r.Emu)
	}
}

// Replaying reports whether a trace replay source is active.
func (r *Runner) Replaying() bool { return r.replay != nil }

// StartRecording turns on the emulator's trace sink. Trivial-computation
// classification is forced on for the recording span — the recorded
// stream must be configuration independent, and classification is
// behavior-neutral for cores with the TC enhancement off — and restored
// by StopRecording.
func (r *Runner) StartRecording(capHint int) {
	r.savedDetect = r.Emu.DetectTrivial
	r.Emu.DetectTrivial = true
	r.Emu.StartRecording(capHint)
}

// StopRecording turns the sink off, restores the configured trivial
// detection, and returns the records accumulated since StartRecording.
func (r *Runner) StopRecording() []trace.Rec {
	r.Emu.DetectTrivial = r.savedDetect
	return r.Emu.StopRecording()
}

// RestoreCheckpoint rewinds the architectural state to a checkpoint taken
// on the same program. Micro-architectural state (caches, predictors) is
// left untouched — the caller re-warms it, exactly as a SimPoint user
// restores an architectural checkpoint and then applies warm-up.
func (r *Runner) RestoreCheckpoint(cp *cpu.Checkpoint) error {
	if n := r.Core.InFlight(); n != 0 {
		return fmt.Errorf("sim: restore with %d instructions in flight", n)
	}
	return r.Emu.Restore(cp)
}

// String summarizes the runner for diagnostics.
func (r *Runner) String() string {
	return fmt.Sprintf("runner(%s on %s)", r.Prog.Name, r.Cfg.Name)
}
