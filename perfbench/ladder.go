package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments/sched"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The layer ladder times single layers through their public functions, on
// inputs captured from the workload's own programs and machines: one
// window of each benchmark's reference program, starting at the
// FF 1000M point.
const (
	ladderStartM = 1000    // window start, paper-M
	ladderInstr  = 100_000 // instructions per workload, split across its benchmarks
	minWindow    = 20_000  // but at least this many per benchmark
	ladderPad    = 4096    // recorded past the window, for the replaying core's fetch-ahead
	lookupsPer   = 10_000  // store lookups per sample
	emptyCells   = 2_000   // empty cells per scheduler sample
	minSamples   = 3
)

// window is one captured stretch of a program.
type window struct {
	bench bench.Name
	prog  *program.Program
	emu   *cpu.Emu
	start uint64          // absolute position of the window
	n     uint64          // window length, instructions
	cp    *cpu.Checkpoint // architectural state at start
	recs  []trace.Rec     // the window's stream plus ladderPad
	reqs  []mem.MemReq    // its memory requests, in order
	brs   []branchEvent   // its control transfers, in order
}

type branchEvent struct {
	pc    int32
	op    isa.Op
	next  int32
	taken bool
}

// captureWindow records n instructions of b's reference program.
func captureWindow(b bench.Name, n uint64) (*window, error) {
	p, err := bench.Build(b, bench.Reference, scale)
	if err != nil {
		return nil, err
	}
	e := cpu.NewEmu(p)
	start := scale.Instr(ladderStartM)
	if e.Run(start) != start {
		return nil, fmt.Errorf("%s halts before the ladder window at %d", b, start)
	}
	w := &window{bench: b, prog: p, emu: e, start: start, n: n, cp: e.Snapshot()}
	e.DetectTrivial = true // as sim.Runner.StartRecording sets it
	e.StartRecording(int(n + ladderPad))
	e.Run(n + ladderPad)
	w.recs = e.StopRecording()
	if uint64(len(w.recs)) < n+ladderPad {
		return nil, fmt.Errorf("%s halts inside the ladder window", b)
	}
	for _, r := range w.recs[:n] {
		op := p.Code[r.PC].Op
		w.reqs = append(w.reqs, mem.MemReq{Addr: uint64(r.PC) * isa.InstBytes, Kind: mem.ReqIFetch})
		switch isa.ClassOf(op) {
		case isa.ClassLoad:
			w.reqs = append(w.reqs, mem.MemReq{Addr: r.Addr, Kind: mem.ReqLoad})
		case isa.ClassStore:
			w.reqs = append(w.reqs, mem.MemReq{Addr: r.Addr, Kind: mem.ReqStore})
		case isa.ClassBranch:
			w.brs = append(w.brs, branchEvent{pc: r.PC, op: op, next: r.Next, taken: r.Taken()})
		}
	}
	return w, nil
}

// ladder runs the layer timings and collects one value per sample.
type ladder struct {
	ctx      context.Context
	wins     []*window
	cfgs     []sim.Config
	spans    *spanLog
	share    time.Duration // time given to each rung
	samples  map[string][]float64
	problems []string
	sink     uint64 // keeps the timed loops' results live
}

// rung runs sample until the rung's share of time is spent, and at least
// minSamples times. Sample i uses window i and machine i, cycling.
func (l *ladder) rung(sample func(w *window, cfg sim.Config) error) error {
	deadline := time.Now().Add(l.share)
	for i := 0; i < minSamples || time.Now().Before(deadline); i++ {
		if err := l.ctx.Err(); err != nil {
			return err
		}
		if err := sample(l.wins[i%len(l.wins)], l.cfgs[i%len(l.cfgs)]); err != nil {
			return err
		}
	}
	return nil
}

// time runs f under a span and returns its duration.
func (l *ladder) time(name string, f func()) time.Duration {
	id := l.spans.begin(name, "", 0, -1)
	start := time.Now()
	f()
	d := time.Since(start)
	l.spans.end(id)
	return d
}

func (l *ladder) add(metric string, d time.Duration, per float64) {
	l.samples[metric] = append(l.samples[metric], float64(d.Nanoseconds())/per)
}

// warmState is every counter functional warming leaves behind.
type warmState struct {
	hier                 mem.Snapshot
	lookups, mispredicts uint64
	btbLookups, btbMiss  uint64
	rasPops, rasMiss     uint64
}

func warmStateOf(r *sim.Runner) warmState {
	return warmState{hier: r.Hier.Snap(), lookups: r.Pred.Lookups, mispredicts: r.Pred.Mispredict,
		btbLookups: r.BTB.Lookups, btbMiss: r.BTB.Misses, rasPops: r.RAS.Pops, rasMiss: r.RAS.PopMisses}
}

func warmer(r *sim.Runner) cpu.Warmer {
	return cpu.Warmer{Hier: r.Hier, Pred: r.Pred, BTB: r.BTB, RAS: r.RAS}
}

var errMiss = errors.New("perfbench: store lookup missed a resident entry")

// runLadder times every rung within budget and returns the per-layer
// values (medians over samples) and any failed check.
func runLadder(ctx context.Context, p *plan, spans *spanLog, budget time.Duration) (map[string]float64, []string, error) {
	per := max(uint64(ladderInstr/len(p.w.benches)), minWindow)
	l := &ladder{ctx: ctx, cfgs: p.machines, spans: spans, samples: map[string][]float64{}}
	for _, b := range p.w.benches {
		w, err := captureWindow(b, per)
		if err != nil {
			return nil, nil, err
		}
		l.wins = append(l.wins, w)
	}
	rungs := []func(w *window, cfg sim.Config) error{
		l.emulate, l.record, l.warm, l.detailed, l.memory, l.branches,
		l.traceLookup, l.ckptLookup, l.schedOverhead, l.build,
	}
	l.share = budget / time.Duration(len(rungs))
	for _, r := range rungs {
		if err := l.rung(r); err != nil {
			return nil, nil, err
		}
	}
	out := map[string]float64{}
	for k, v := range l.samples {
		out[k] = median(v)
	}
	return out, l.problems, nil
}

// emulate times Emu.Run over the window: cpu.emulate_ns.
func (l *ladder) emulate(w *window, _ sim.Config) error {
	if err := w.emu.Restore(w.cp); err != nil {
		return err
	}
	w.emu.DetectTrivial = false // as a fast-forward runs on the envelope machines
	d := l.time("cpu.Emu.Run", func() { w.emu.Run(w.n) })
	l.add("cpu.emulate_ns", d, float64(w.n))
	return nil
}

// record times Emu.Run with the trace sink on: cpu.record_ns.
func (l *ladder) record(w *window, _ sim.Config) error {
	if err := w.emu.Restore(w.cp); err != nil {
		return err
	}
	w.emu.DetectTrivial = true // as sim.Runner.StartRecording sets it
	w.emu.StartRecording(int(w.n))
	d := l.time("cpu.Emu.Run recording", func() { w.emu.Run(w.n) })
	w.emu.StopRecording()
	l.add("cpu.record_ns", d, float64(w.n))
	return nil
}

// warm times emulated (Emu.RunWarm) and replayed (Replayer.RunWarm)
// functional warming of the window on fresh machines, and checks that both
// leave the same cache, TLB and predictor counters.
func (l *ladder) warm(w *window, cfg sim.Config) error {
	emu, err := sim.NewRunner(w.prog, cfg)
	if err != nil {
		return err
	}
	if err := emu.Emu.Restore(w.cp); err != nil {
		return err
	}
	d := l.time("cpu.Emu.RunWarm", func() { emu.Emu.RunWarm(w.n, warmer(emu)) })
	l.add("cpu.warm_ns", d, float64(w.n))

	rep, err := sim.NewRunner(w.prog, cfg)
	if err != nil {
		return err
	}
	rp := cpu.NewReplayer(rep.Emu, w.recs)
	d = l.time("cpu.Replayer.RunWarm", func() { rp.RunWarm(w.n, warmer(rep)) })
	l.add("cpu.replay_warm_ns", d, float64(w.n))

	if a, b := warmStateOf(emu), warmStateOf(rep); a != b {
		l.problems = append(l.problems, fmt.Sprintf("%s on %s: replayed warming left %+v, emulated warming %+v", w.bench, cfg.Name, b, a))
	}
	return nil
}

// detailed times the out-of-order core on the replayed window:
// cpu.core_ns per committed instruction, cpu.core_cycle_ns per cycle.
func (l *ladder) detailed(w *window, cfg sim.Config) error {
	r, err := sim.NewRunner(w.prog, cfg)
	if err != nil {
		return err
	}
	r.BeginReplay(w.recs)
	d := l.time("sim.Runner.Detailed", func() { r.Detailed(w.n) })
	l.add("cpu.core_ns", d, float64(r.Core.Stats.Committed))
	l.add("cpu.core_cycle_ns", d, float64(r.Core.Stats.Cycles))
	return nil
}

// memory times the hierarchy on the window's request stream:
// mem.access_ns (AccessBatch) and mem.warm_ns (WarmBatch), per request.
func (l *ladder) memory(w *window, cfg sim.Config) error {
	h, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return err
	}
	var total int
	d := l.time("mem.Hierarchy.AccessBatch", func() { total = h.AccessBatch(w.reqs, nil) })
	l.sink += uint64(total)
	l.add("mem.access_ns", d, float64(len(w.reqs)))
	if h, err = mem.NewHierarchy(cfg.Mem); err != nil {
		return err
	}
	d = l.time("mem.Hierarchy.WarmBatch", func() { h.WarmBatch(w.reqs) })
	l.add("mem.warm_ns", d, float64(len(w.reqs)))
	return nil
}

// branches times predictor lookup and update, with BTB and RAS, per
// control transfer of the window: branch.predict_ns.
func (l *ladder) branches(w *window, cfg sim.Config) error {
	pred, err := branch.NewPredictor(cfg.Pred)
	if err != nil {
		return err
	}
	btb, err := branch.NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		return err
	}
	ras, err := branch.NewRAS(cfg.RASEntries)
	if err != nil {
		return err
	}
	var hits uint64
	d := l.time("branch predict", func() {
		for _, b := range w.brs {
			pc := uint64(b.pc) * isa.InstBytes
			if isa.IsCondBranch(b.op) {
				if pred.Lookup(pc) == b.taken {
					hits++
				}
				pred.Update(pc, b.taken)
			}
			if _, ok := btb.Lookup(pc); ok {
				hits++
			}
			if b.taken && b.op != isa.JR {
				btb.Update(pc, b.next)
			}
			switch b.op {
			case isa.JAL:
				ras.Push(b.pc + 1)
			case isa.JR:
				ras.Pop(b.next)
			}
		}
	})
	l.sink += hits
	l.add("branch.predict_ns", d, float64(len(w.brs)))
	return nil
}

// traceLookup times trace.Store.Window hits: trace.lookup_ns.
func (l *ladder) traceLookup(w *window, _ sim.Config) error {
	s := trace.New(1 << 40)
	id := trace.IDOf(w.prog)
	s.Put(id, &trace.Region{Start: w.start, Recs: w.recs})
	miss := func() (*trace.Region, error) { return nil, errMiss }
	var err error
	d := l.time("trace.Store.Window", func() {
		for i := 0; i < lookupsPer && err == nil; i++ {
			_, _, err = s.Window(l.ctx, id, w.start, w.n, miss)
		}
	})
	if err != nil {
		return err
	}
	l.add("trace.lookup_ns", d, lookupsPer)
	return nil
}

// ckptLookup times ckpt.Store.Prefix hits: ckpt.lookup_ns.
func (l *ladder) ckptLookup(w *window, _ sim.Config) error {
	s := ckpt.New(1 << 40)
	id := ckpt.IDOf(w.prog)
	s.Put(id, w.start, w.cp)
	miss := func(*cpu.Checkpoint, uint64) (*cpu.Checkpoint, error) { return nil, errMiss }
	var err error
	d := l.time("ckpt.Store.Prefix", func() {
		for i := 0; i < lookupsPer && err == nil; i++ {
			_, _, err = s.Prefix(l.ctx, id, w.start, miss)
		}
	})
	if err != nil {
		return err
	}
	l.add("ckpt.lookup_ns", d, lookupsPer)
	return nil
}

// schedOverhead times sched.Pool.Run on empty cells:
// sched.cell_overhead_us.
func (l *ladder) schedOverhead(*window, sim.Config) error {
	pool := &sched.Pool{Workers: workers}
	cells := make([]sched.Cell, emptyCells)
	empty := func(context.Context, *sched.Worker, sched.Cell) (core.Result, error) { return core.Result{}, nil }
	d := l.time("sched.Pool.Run", func() { pool.Run(l.ctx, cells, empty) })
	l.add("sched.cell_overhead_us", d, emptyCells*1000)
	return nil
}

// build times bench.Build plus cpu.NewEmu for a reference program:
// bench.build_ms.
func (l *ladder) build(w *window, _ sim.Config) error {
	var err error
	d := l.time("bench.Build", func() {
		var p *program.Program
		if p, err = bench.Build(w.bench, bench.Reference, scale); err == nil {
			l.sink += uint64(len(cpu.NewEmu(p).Mem))
		}
	})
	if err != nil {
		return err
	}
	l.add("bench.build_ms", d, 1e6)
	return nil
}
