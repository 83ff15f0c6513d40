package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TCMode selects the trivial-computation enhancement level [Yi02].
type TCMode uint8

// Trivial-computation modes.
const (
	TCOff TCMode = iota
	// TCSimplify executes trivial computations on a single-cycle integer
	// ALU instead of their normal (long-latency) functional unit.
	TCSimplify
	// TCEliminate additionally bypasses identity/constant computations
	// entirely: they complete at issue with zero execution latency.
	TCEliminate
)

// String names the mode.
func (m TCMode) String() string {
	switch m {
	case TCOff:
		return "off"
	case TCSimplify:
		return "simplify"
	case TCEliminate:
		return "eliminate"
	default:
		return fmt.Sprintf("tc(%d)", uint8(m))
	}
}

// CoreConfig holds the pipeline parameters of the out-of-order core. Cache,
// TLB and memory parameters live in mem.HierarchyConfig; branch predictor
// parameters in branch.Config. Together they form the 43 Plackett-Burman
// parameters assembled by package sim.
type CoreConfig struct {
	FetchWidth     int
	FetchQueue     int
	DecodeWidth    int
	IssueWidth     int
	CommitWidth    int
	ROBEntries     int
	IQEntries      int
	LSQEntries     int
	IntALUs        int
	IntALULat      int
	IntMultUnits   int
	IntMultLat     int
	IntDivLat      int
	FPALUs         int
	FPALULat       int
	FPMultUnits    int
	FPMultLat      int
	FPDivLat       int
	DMemPorts      int
	MispredPenalty int // extra redirect cycles beyond branch resolution
	StoreForward   int // store-to-load forwarding latency

	TC TCMode
}

// Validate reports configuration errors.
func (c CoreConfig) Validate() error {
	pos := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"FetchQueue", c.FetchQueue},
		{"DecodeWidth", c.DecodeWidth}, {"IssueWidth", c.IssueWidth},
		{"CommitWidth", c.CommitWidth}, {"ROBEntries", c.ROBEntries},
		{"IQEntries", c.IQEntries}, {"LSQEntries", c.LSQEntries},
		{"IntALUs", c.IntALUs}, {"IntALULat", c.IntALULat},
		{"IntMultUnits", c.IntMultUnits}, {"IntMultLat", c.IntMultLat},
		{"IntDivLat", c.IntDivLat}, {"FPALUs", c.FPALUs},
		{"FPALULat", c.FPALULat}, {"FPMultUnits", c.FPMultUnits},
		{"FPMultLat", c.FPMultLat}, {"FPDivLat", c.FPDivLat},
		{"DMemPorts", c.DMemPorts}, {"StoreForward", c.StoreForward},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("cpu: %s must be positive, got %d", p.name, p.v)
		}
	}
	if c.MispredPenalty < 0 {
		return fmt.Errorf("cpu: MispredPenalty must be non-negative, got %d", c.MispredPenalty)
	}
	return nil
}

// robEntry is one in-flight instruction.
type robEntry struct {
	di        DynInst
	seq       int64 // global fetch order; also identifies the ROB slot
	depA      int64 // producer seqs; -1 when the value was in the register file at dispatch
	depB      int64
	doneCycle uint64    // valid once issued: the cycle the result is available
	issued    bool      // issued entries are also done (at doneCycle)
	writes    bool      // writes a register, so consumers may wait on it
	level     mem.Level // for loads: the hierarchy level that served the access

	// Wakeup state. pending counts operands whose producers have not yet
	// completed; the entry joins the ready set when it reaches zero.
	// consumers heads the intrusive list of entries waiting on this one's
	// result and next links this entry into its producers' lists, one link
	// per operand; links are slot<<1 | operand, -1 ends a list.
	pending   uint8
	consumers int32
	next      [2]int32
}

// completion is a scheduled wakeup: the issued register writer in slot
// completes (and wakes its consumers) at cycle at.
type completion struct {
	at   uint64
	slot int32
}

// CoreStats counts events observed by the core itself; predictor and memory
// statistics live in their own structures.
type CoreStats struct {
	Cycles    uint64
	Committed uint64

	ClassCounts [isa.NumClasses]uint64

	TrivialSeen       uint64 // dynamic trivial computations observed
	TrivialSimplified uint64
	TrivialEliminated uint64
	LoadsForwarded    uint64

	FetchStallCycles uint64 // cycles the frontend was blocked on a branch or I-miss
	ROBFullStalls    uint64 // dispatch stalls due to a full ROB
	IQFullStalls     uint64
	LSQFullStalls    uint64

	// CycleStack decomposes every cycle into exactly one CPI-stack
	// component (see attributeCycle); the components sum to Cycles at all
	// times, an invariant pinned by TestCPIStackConservation.
	CycleStack [NumCPIComponents]uint64
}

// Sub returns s - t for measurement-window deltas.
func (s CoreStats) Sub(t CoreStats) CoreStats {
	r := s
	r.Cycles -= t.Cycles
	r.Committed -= t.Committed
	for i := range r.ClassCounts {
		r.ClassCounts[i] -= t.ClassCounts[i]
	}
	r.TrivialSeen -= t.TrivialSeen
	r.TrivialSimplified -= t.TrivialSimplified
	r.TrivialEliminated -= t.TrivialEliminated
	r.LoadsForwarded -= t.LoadsForwarded
	r.FetchStallCycles -= t.FetchStallCycles
	r.ROBFullStalls -= t.ROBFullStalls
	r.IQFullStalls -= t.IQFullStalls
	r.LSQFullStalls -= t.LSQFullStalls
	for i := range r.CycleStack {
		r.CycleStack[i] -= t.CycleStack[i]
	}
	return r
}

// IPC returns committed instructions per cycle for the window.
func (s CoreStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPI returns cycles per committed instruction for the window.
func (s CoreStats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// CPIStack returns the per-component cycles-per-instruction decomposition:
// element i is CycleStack[i] divided by Committed, so the elements sum to
// CPI (conservation: the raw components sum to Cycles).
func (s CoreStats) CPIStack() [NumCPIComponents]float64 {
	var out [NumCPIComponents]float64
	if s.Committed == 0 {
		return out
	}
	inv := 1 / float64(s.Committed)
	for i, v := range s.CycleStack {
		out[i] = float64(v) * inv
	}
	return out
}

// Core is the cycle-level out-of-order superscalar engine. It consumes the
// correct-path dynamic instruction stream from an instruction source — the
// functional emulator or a trace replayer — and models fetch, dispatch,
// issue, execute, and commit timing.
type Core struct {
	cfg  CoreConfig
	src  InstSource
	dec  []decInst // src's pre-decoded table, cached for fetch/dispatch
	hier *mem.Hierarchy
	pred *branch.Predictor
	btb  *branch.BTB
	ras  *branch.RAS

	cycle uint64

	// Reorder buffer as a seq-indexed ring: entry for seq s lives in
	// rob[s&robMask]; occupied range is [headSeq, nextSeq). The ring is
	// sized to the next power of two above ROBEntries so slot lookup is a
	// mask; the architectural capacity check still uses ROBEntries.
	rob     []robEntry
	robMask int64
	headSeq int64
	nextSeq int64

	// ready is a bitset over ROB slots of dispatched, unissued entries
	// whose operands are all available; issue selects from it
	// oldest-first. readyCount is its population and readySpan the ring
	// distance one word covers (64, or the whole ring when smaller).
	ready      []uint64
	readyCount int
	readySpan  int64

	// wakeQ is a min-heap on completion cycle of issued register writers
	// whose results are not yet available, preallocated to the ring size
	// (at most one entry per in-flight instruction).
	wakeQ []completion

	// fetchQ holds fetched, not yet dispatched instructions.
	fetchQ  []DynInst
	fqHead  int
	fqCount int

	iqCount  int // dispatched, not yet issued
	lsqCount int // memory ops dispatched, not yet committed

	// stores holds the seqs of in-flight stores oldest-first, in a ring
	// the size of the ROB's: the only entries load disambiguation needs
	// to look at.
	stores  []int64
	stHead  int
	stCount int

	lastWriter [64]int64 // register -> seq of most recent in-flight writer, -1 none

	// Functional-unit pools: next-free cycle per unit.
	fuIntALU  []uint64
	fuIntMult []uint64
	fuFPALU   []uint64
	fuFPMult  []uint64
	dports    []uint64

	// Frontend control.
	fetchResume    uint64 // fetch blocked until this cycle
	waitBranchSeq  int64  // seq of the unresolved branch the frontend waits on, -1 none
	pendingRefill  uint64 // extra cycles to add when that branch resolves
	lastFetchBlock uint64 // last I-cache block fetched (+1, so 0 = none)
	traceDone      bool
	runTarget      uint64 // commit ceiling for the current Run/Drain call

	l1iHitLat      int
	fetchBlockMask uint64 // ^(L1I block bytes - 1), hoisted out of fetch

	// frontRefill is the CPI component charged while the frontend waits
	// out a fetchResume window: CPIBranch after a branch redirect,
	// CPIFrontend after an I-cache miss.
	frontRefill CPIComponent

	// tl is the optional interval timeline recorder; tlNext is the
	// committed-instruction threshold of its next sample. A nil tl costs
	// one pointer check per cycle (the disabled contract).
	tl     *Timeline
	tlNext uint64

	Stats CoreStats
}

// NewCore builds a core over the shared functional emulator and
// micro-architectural state. All structures must be non-nil.
func NewCore(cfg CoreConfig, emu *Emu, hier *mem.Hierarchy, pred *branch.Predictor, btb *branch.BTB, ras *branch.RAS) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	robCap := 1
	for robCap < cfg.ROBEntries {
		robCap <<= 1
	}
	c := &Core{
		cfg:  cfg,
		src:  emu,
		dec:  emu.dec,
		hier: hier,
		pred: pred,
		btb:  btb,
		ras:  ras,

		rob:       make([]robEntry, robCap),
		robMask:   int64(robCap - 1),
		ready:     make([]uint64, (robCap+63)/64),
		readySpan: int64(min(robCap, 64)),
		wakeQ:     make([]completion, 0, robCap),
		stores:    make([]int64, robCap),
		fetchQ:    make([]DynInst, cfg.FetchQueue),
		fuIntALU:  make([]uint64, cfg.IntALUs),
		fuIntMult: make([]uint64, cfg.IntMultUnits),
		fuFPALU:   make([]uint64, cfg.FPALUs),
		fuFPMult:  make([]uint64, cfg.FPMultUnits),
		dports:    make([]uint64, cfg.DMemPorts),

		waitBranchSeq:  -1,
		l1iHitLat:      hier.L1I.Latency(),
		fetchBlockMask: ^uint64(hier.L1I.BlockBytes() - 1),
		frontRefill:    CPIFrontend,
	}
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
	}
	return c, nil
}

// Config returns the core configuration.
func (c *Core) Config() CoreConfig { return c.cfg }

// SetSource swaps the core's instruction source (emulator or trace
// replayer) at a stream boundary: the new source must continue the
// dynamic instruction stream exactly where the old one stopped. Timing
// state is untouched — in particular the last-fetched I-cache block is
// preserved, because the stream is continuous — so a run that switches
// sources cycles identically to one that never does.
func (c *Core) SetSource(s InstSource) {
	c.src = s
	c.dec = s.decTable()
	c.traceDone = false
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// robAt returns the entry holding seq; seq must be in [headSeq, nextSeq).
func (c *Core) robAt(seq int64) *robEntry {
	return &c.rob[seq&c.robMask]
}

func (c *Core) robCount() int { return int(c.nextSeq - c.headSeq) }

// setReady adds seq to the ready set.
func (c *Core) setReady(seq int64) {
	slot := seq & c.robMask
	c.ready[slot>>6] |= 1 << (slot & 63)
	c.readyCount++
}

// nextReady returns the oldest ready seq at or after s, or nextSeq when
// there is none. Bits of a word above s's slot can only hold younger
// entries or, once the scan has wrapped into the head's word, older ones
// already passed; the latter map past nextSeq and end the scan.
func (c *Core) nextReady(s int64) int64 {
	for s < c.nextSeq {
		slot := s & c.robMask
		bit := slot & 63
		if w := c.ready[slot>>6] >> bit; w != 0 {
			return min(s+int64(bits.TrailingZeros64(w)), c.nextSeq)
		}
		s += c.readySpan - bit
	}
	return c.nextSeq
}

// markIssued records that e issued this cycle with its result available
// at done: it leaves the issue queue and the ready set, and a register
// writer wakes its consumers — at once when the result is already
// available (an eliminated trivial computation), else when done arrives.
func (c *Core) markIssued(e *robEntry, done uint64) {
	e.issued = true
	e.doneCycle = done
	c.iqCount--
	slot := e.seq & c.robMask
	c.ready[slot>>6] &^= 1 << (slot & 63)
	c.readyCount--
	if !e.writes {
		return
	}
	if done <= c.cycle {
		c.wake(e)
		return
	}
	// Push onto the completion heap (capacity is preallocated).
	h := append(c.wakeQ, completion{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= done {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = completion{at: done, slot: int32(slot)}
	c.wakeQ = h
}

// wake delivers p's result to every consumer waiting on it.
func (c *Core) wake(p *robEntry) {
	for l := p.consumers; l >= 0; {
		e := &c.rob[l>>1]
		l = e.next[l&1]
		e.pending--
		if e.pending == 0 {
			c.setReady(e.seq)
		}
	}
	p.consumers = -1
}

// completeDue pops every completion due by the current cycle and wakes
// its consumers. It runs before select, so a result available at cycle t
// can be consumed by an instruction issuing at t, as a producer whose
// doneCycle has arrived always could.
func (c *Core) completeDue() {
	h := c.wakeQ
	for len(h) > 0 && h[0].at <= c.cycle {
		c.wake(&c.rob[h[0].slot])
		last := h[len(h)-1]
		h = h[:len(h)-1]
		n, i := len(h), 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].at < h[l].at {
				l = r
			}
			if h[l].at >= last.at {
				break
			}
			h[i] = h[l]
			i = l
		}
		if n > 0 {
			h[i] = last
		}
	}
	c.wakeQ = h
}

// freeUnit finds a functional unit free this cycle and marks it busy for
// busyFor cycles, returning false when none is available.
func freeUnit(pool []uint64, cycle uint64, busyFor int) bool {
	for i, free := range pool {
		if free <= cycle {
			pool[i] = cycle + uint64(busyFor)
			return true
		}
	}
	return false
}

// execLatency returns the execution latency and FU pool for a dynamic
// instruction, applying the trivial-computation enhancement.
func (c *Core) execLatency(e *robEntry) (lat int, pool []uint64, eliminated bool) {
	di := &e.di
	if c.cfg.TC != TCOff && di.Trivial != isa.NotTrivial {
		if c.cfg.TC == TCEliminate &&
			(di.Trivial == isa.TrivialIdentity || di.Trivial == isa.TrivialConstant) {
			return 0, nil, true
		}
		// Simplify: route to a single-cycle integer ALU.
		return 1, c.fuIntALU, false
	}
	switch di.Class {
	case isa.ClassIntALU:
		return c.cfg.IntALULat, c.fuIntALU, false
	case isa.ClassIntMult:
		if di.Op == isa.MUL {
			return c.cfg.IntMultLat, c.fuIntMult, false
		}
		return c.cfg.IntDivLat, c.fuIntMult, false
	case isa.ClassFPALU:
		return c.cfg.FPALULat, c.fuFPALU, false
	case isa.ClassFPMult:
		if di.Op == isa.FMUL {
			return c.cfg.FPMultLat, c.fuFPMult, false
		}
		return c.cfg.FPDivLat, c.fuFPMult, false
	case isa.ClassBranch, isa.ClassStore:
		// Branch resolution and store address generation use an integer ALU.
		return c.cfg.IntALULat, c.fuIntALU, false
	default: // ClassNop
		return 1, c.fuIntALU, false
	}
}

// nonPipelined reports whether the op monopolizes its unit for the full
// latency (divides) rather than being pipelined.
func nonPipelined(op isa.Op) bool {
	switch op {
	case isa.DIV, isa.REM, isa.FDIV:
		return true
	}
	return false
}

// commit retires up to CommitWidth completed instructions in order, never
// exceeding the current run target so measurement windows are exact.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.headSeq < c.nextSeq && c.Stats.Committed < c.runTarget; n++ {
		e := c.robAt(c.headSeq)
		if !e.issued || e.doneCycle > c.cycle {
			return
		}
		if e.di.Class == isa.ClassStore {
			// Stores access the D-cache at commit through a shared port;
			// commit stalls when no port is free this cycle.
			if !freeUnit(c.dports, c.cycle, 1) {
				return
			}
			c.hier.AccessD(e.di.Addr, true)
			c.stHead = (c.stHead + 1) & int(c.robMask)
			c.stCount--
		}
		if e.di.Class == isa.ClassLoad || e.di.Class == isa.ClassStore {
			c.lsqCount--
		}
		if w := writesReg(&e.di); w != isa.RegNone {
			if c.lastWriter[w] == e.seq {
				c.lastWriter[w] = -1
			}
		}
		c.Stats.Committed++
		c.Stats.ClassCounts[e.di.Class]++
		c.headSeq++
	}
}

// writesReg returns the destination register written by di, or RegNone.
// Writes to the hardwired integer R0 create no dependences.
func writesReg(di *DynInst) isa.Reg {
	w := isa.RegNone
	switch di.Class {
	case isa.ClassStore, isa.ClassNop:
	case isa.ClassBranch:
		if di.Op == isa.JAL {
			w = di.Dst
		}
	default:
		w = di.Dst
	}
	if w == 0 { // integer R0
		return isa.RegNone
	}
	return w
}

// issue wakes the consumers of results due this cycle, then selects up to
// IssueWidth ready instructions oldest-first. An eliminated trivial
// computation wakes its consumers during the select, and being younger
// they are still reached in the same cycle.
func (c *Core) issue() {
	c.completeDue()
	issued := 0
	for seq := c.nextReady(c.headSeq); seq < c.nextSeq && issued < c.cfg.IssueWidth; seq = c.nextReady(seq + 1) {
		e := c.robAt(seq)
		switch e.di.Class {
		case isa.ClassLoad:
			if !c.issueLoad(e) {
				continue
			}
		case isa.ClassNop:
			c.markIssued(e, c.cycle+1)
		default:
			lat, pool, eliminated := c.execLatency(e)
			if eliminated {
				c.markIssued(e, c.cycle) // bypassed: result known immediately
				c.Stats.TrivialEliminated++
				c.resolveBranchWait(e)
				break
			}
			busy := 1
			if nonPipelined(e.di.Op) && lat > 1 {
				busy = lat // divides monopolize their unit unless simplified
			}
			if !freeUnit(pool, c.cycle, busy) {
				continue
			}
			if c.cfg.TC != TCOff && e.di.Trivial != isa.NotTrivial {
				c.Stats.TrivialSimplified++
			}
			c.markIssued(e, c.cycle+uint64(lat))
			c.resolveBranchWait(e)
		}
		issued++
	}
}

// issueLoad handles memory disambiguation, forwarding, ports, and the cache
// access for a load. It returns false when the load cannot issue this cycle.
func (c *Core) issueLoad(e *robEntry) bool {
	// Memory disambiguation is oracle-based (addresses are exact from the
	// functional stream): only older stores to the same word matter.
	word := e.di.Addr >> 3
	var forwardFrom *robEntry
	for i := c.stCount - 1; i >= 0; i-- {
		s := c.stores[(c.stHead+i)&int(c.robMask)]
		if s > e.seq {
			continue // younger than the load
		}
		if p := c.robAt(s); p.di.Addr>>3 == word {
			forwardFrom = p
			break
		}
	}
	if forwardFrom != nil {
		// The youngest older store to this word must have produced its data.
		if !forwardFrom.issued || forwardFrom.doneCycle > c.cycle {
			return false
		}
		e.level = mem.LevelL1
		c.markIssued(e, c.cycle+uint64(c.cfg.StoreForward))
		c.Stats.LoadsForwarded++
		return true
	}
	if !freeUnit(c.dports, c.cycle, 1) {
		return false
	}
	lat, level := c.hier.AccessDLevel(e.di.Addr, false)
	e.level = level
	c.markIssued(e, c.cycle+uint64(lat))
	return true
}

// resolveBranchWait releases the frontend if it was waiting on this entry.
func (c *Core) resolveBranchWait(e *robEntry) {
	if c.waitBranchSeq == e.seq {
		c.waitBranchSeq = -1
		r := e.doneCycle + 1 + c.pendingRefill
		if r > c.fetchResume {
			c.fetchResume = r
			c.frontRefill = CPIBranch
		}
	}
}

// dispatch moves instructions from the fetch queue into the ROB.
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DecodeWidth && c.fqCount > 0; n++ {
		if c.robCount() >= c.cfg.ROBEntries {
			c.Stats.ROBFullStalls++
			return
		}
		if c.iqCount >= c.cfg.IQEntries {
			c.Stats.IQFullStalls++
			return
		}
		fe := &c.fetchQ[c.fqHead]
		isMem := fe.Class == isa.ClassLoad || fe.Class == isa.ClassStore
		if isMem && c.lsqCount >= c.cfg.LSQEntries {
			c.Stats.LSQFullStalls++
			return
		}

		seq := c.nextSeq
		e := c.robAt(seq)
		*e = robEntry{di: *fe, seq: seq, depA: -1, depB: -1, consumers: -1}

		// Record data dependences on in-flight producers and wait on those
		// whose results are not yet available. The operand shape (which
		// sources are register reads) is pre-decoded.
		d := &c.dec[e.di.PC]
		if d.readsA {
			e.depA = c.waitOn(e, 0, e.di.SrcA)
		}
		if d.readsB {
			e.depB = c.waitOn(e, 1, e.di.SrcB)
		}
		if e.pending == 0 {
			c.setReady(seq)
		}

		if c.cfg.TC != TCOff && e.di.Trivial != isa.NotTrivial {
			c.Stats.TrivialSeen++
		}
		if w := writesReg(&e.di); w != isa.RegNone {
			c.lastWriter[w] = seq
			e.writes = true
		}
		if isMem {
			c.lsqCount++
		}
		if e.di.Class == isa.ClassStore {
			c.stores[(c.stHead+c.stCount)&int(c.robMask)] = seq
			c.stCount++
		}
		c.iqCount++
		c.nextSeq++
		c.fqHead = (c.fqHead + 1) % len(c.fetchQ)
		c.fqCount--
	}
}

// waitOn resolves operand op (0 for A, 1 for B) of the entry being
// dispatched, which reads register r, to its in-flight producer and
// returns the producer's seq (-1 when the value is in the register file).
// A producer whose result is not yet available gets e on its consumer
// list, and e one more pending operand.
func (c *Core) waitOn(e *robEntry, op int32, r isa.Reg) int64 {
	if r == isa.RegNone || r == 0 { // R0 always ready
		return -1
	}
	dep := c.lastWriter[r]
	if dep == -1 {
		return -1
	}
	p := c.robAt(dep)
	if p.issued && p.doneCycle <= c.cycle {
		return dep
	}
	e.next[op] = p.consumers
	p.consumers = int32(e.seq&c.robMask)<<1 | op
	e.pending++
	return dep
}

// fetch pulls instructions from the functional emulator through the I-cache
// and branch predictors into the fetch queue.
func (c *Core) fetch() {
	if c.traceDone {
		return
	}
	if c.waitBranchSeq != -1 || c.cycle < c.fetchResume {
		c.Stats.FetchStallCycles++
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqCount >= len(c.fetchQ) {
			return
		}
		if c.src.SrcDone() {
			c.traceDone = true
			return
		}
		pc := c.src.SrcPC()
		faddr := uint64(pc) * isa.InstBytes
		blk := (faddr & c.fetchBlockMask) + 1 // +1 so zero means "none yet"
		if blk != c.lastFetchBlock {
			lat := c.hier.AccessI(faddr)
			c.lastFetchBlock = blk
			if lat > c.l1iHitLat {
				// Miss: the block arrives after the excess latency; stop
				// fetching until then.
				c.fetchResume = c.cycle + uint64(lat-c.l1iHitLat)
				c.frontRefill = CPIFrontend
				return
			}
		}

		di := &c.fetchQ[(c.fqHead+c.fqCount)%len(c.fetchQ)]
		if !c.src.Step(di) {
			c.traceDone = true
			return
		}
		c.fqCount++

		if di.Op == isa.HALT {
			c.traceDone = true
			return
		}
		if di.Class != isa.ClassBranch {
			continue
		}

		// Branch prediction: determine whether the frontend can keep
		// fetching, must simply redirect (one-group bubble), or must wait
		// for the branch to resolve. The control kind is pre-decoded.
		seqOfThis := c.nextSeq + int64(c.fqCount) - 1 // seq it will get at dispatch
		switch c.dec[di.PC].ctrl {
		case ctrlCond:
			correct := c.pred.Update(faddr, di.Taken)
			if di.Taken {
				_, btbHit := c.btb.Lookup(faddr)
				c.btb.Update(faddr, di.Next)
				if !correct {
					c.stallOnBranch(seqOfThis, c.mispredRefill())
					return
				}
				if !btbHit {
					c.stallOnBranch(seqOfThis, c.btbMissRefill())
					return
				}
				return // predicted taken: redirect, end fetch group
			}
			if !correct {
				c.stallOnBranch(seqOfThis, c.mispredRefill())
				return
			}
			// correctly predicted not-taken: fall through, keep fetching
		case ctrlJump:
			if di.Op == isa.JAL {
				c.ras.Push(di.PC + 1)
			}
			_, btbHit := c.btb.Lookup(faddr)
			c.btb.Update(faddr, di.Next)
			if !btbHit {
				c.stallOnBranch(seqOfThis, c.btbMissRefill())
				return
			}
			return // redirect, end group
		case ctrlJR:
			if c.ras.Pop(di.Next) {
				return // correctly predicted return: redirect, end group
			}
			c.stallOnBranch(seqOfThis, c.mispredRefill())
			return
		}
	}
}

// mispredRefill is the extra redirect latency after a mispredicted branch
// resolves: the configured penalty plus the frontend refill through the
// L1 I-cache.
func (c *Core) mispredRefill() uint64 {
	return uint64(c.cfg.MispredPenalty + c.l1iHitLat - 1)
}

// btbMissRefill is the redirect latency when direction was right but the
// target was unknown (BTB miss): just the frontend refill.
func (c *Core) btbMissRefill() uint64 {
	return uint64(c.l1iHitLat - 1)
}

func (c *Core) stallOnBranch(seq int64, refill uint64) {
	c.waitBranchSeq = seq
	c.pendingRefill = refill
}

// step advances the machine one cycle, first skipping any idle cycles
// before it.
func (c *Core) step() {
	if c.readyCount == 0 {
		c.skipIdle()
	}
	committedBefore := c.Stats.Committed
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	c.attributeCycle(committedBefore)
	c.cycle++
	c.Stats.Cycles++
	if c.tl != nil && c.Stats.Committed >= c.tlNext {
		c.tlNext = c.tl.record(c)
	}
}

// skipIdle advances the clock over cycles in which no pipeline stage can
// act: nothing is ready to issue or due to complete, the head cannot
// commit, dispatch is blocked and fetch is stalled, finished or has a full
// queue. Such cycles change nothing but the clock and the counters below,
// so the machine jumps to the next event — the earliest completion, the
// head's completion or the end of a fetch stall — charging each skipped
// cycle exactly as an executed idle step would: to Cycles, to the CPI
// component attributeCycle picks, to FetchStallCycles while fetch is
// stalled and to the counter of the structure blocking dispatch.
//
// It runs at the start of a step, never at the end: a run that stops at
// its commit target leaves the idle cycles after it to the next window,
// exactly where executed steps would put them.
func (c *Core) skipIdle() {
	var blocked *uint64
	if c.fqCount > 0 {
		switch fe := &c.fetchQ[c.fqHead]; {
		case c.robCount() >= c.cfg.ROBEntries:
			blocked = &c.Stats.ROBFullStalls
		case c.iqCount >= c.cfg.IQEntries:
			blocked = &c.Stats.IQFullStalls
		case (fe.Class == isa.ClassLoad || fe.Class == isa.ClassStore) && c.lsqCount >= c.cfg.LSQEntries:
			blocked = &c.Stats.LSQFullStalls
		default:
			return // dispatch can act
		}
	}
	fetchStalled := false
	if !c.traceDone {
		fetchStalled = c.waitBranchSeq != -1 || c.cycle < c.fetchResume
		if !fetchStalled && c.fqCount < len(c.fetchQ) {
			return // fetch can act
		}
	}
	next := ^uint64(0)
	if c.fetchResume > c.cycle {
		next = c.fetchResume
	}
	if len(c.wakeQ) > 0 {
		next = min(next, c.wakeQ[0].at)
	}
	if c.headSeq < c.nextSeq {
		if h := c.robAt(c.headSeq); h.issued {
			next = min(next, h.doneCycle)
		}
	}
	if next <= c.cycle || next == ^uint64(0) {
		return // a result or the head is due now, or nothing is pending
	}
	k := next - c.cycle
	c.Stats.CycleStack[c.stallComponent()] += k
	c.Stats.Cycles += k
	if fetchStalled {
		c.Stats.FetchStallCycles += k
	}
	if blocked != nil {
		*blocked += k
	}
	c.cycle = next
}

// attributeCycle charges the cycle that just executed to exactly one
// CPI-stack component — the conservation invariant sum(CycleStack) ==
// Cycles holds by construction. A cycle that committed anything is base
// work; any other is charged by stallComponent.
func (c *Core) attributeCycle(committedBefore uint64) {
	if c.Stats.Committed > committedBefore {
		c.Stats.CycleStack[CPIBase]++
		return
	}
	c.Stats.CycleStack[c.stallComponent()]++
}

// stallComponent names the CPI-stack component of a cycle that committed
// nothing. The priority order follows the classic interval model: the
// oldest in-flight instruction names the bottleneck (an executing head
// load by its serving memory level, a waiting head by its executing
// producer, a ready-but-blocked head as structural contention); an empty
// window is the frontend's fault (branch recovery, I-cache refill, or
// plain fetch starvation).
func (c *Core) stallComponent() CPIComponent {
	if c.headSeq < c.nextSeq {
		e := c.robAt(c.headSeq)
		if !e.issued {
			// Head is waiting on operands, a functional unit, or a port.
			// Charge an executing producer when one exists (a load by its
			// serving level); otherwise the stall is structural.
			if comp, ok := c.producerComponent(e); ok {
				return comp
			}
			return CPIStructural
		}
		if e.doneCycle > c.cycle {
			// Head is executing.
			if e.di.Class == isa.ClassLoad {
				return loadComponent(e.level)
			}
			return CPIBase
		}
		// Head completed but could not commit: the store port was busy or
		// the run target throttled commit this cycle.
		return CPIStructural
	}
	// Empty window: the backend is starved by the frontend.
	if c.waitBranchSeq != -1 {
		return CPIBranch
	}
	if c.cycle < c.fetchResume {
		return c.frontRefill
	}
	return CPIFrontend
}

// producerComponent finds an in-flight producer of e still executing and
// returns the component its latency belongs to, preferring a load (whose
// serving level names the memory component) over ALU work.
func (c *Core) producerComponent(e *robEntry) (CPIComponent, bool) {
	comp, ok := CPIBase, false
	for _, dep := range [2]int64{e.depA, e.depB} {
		if dep < c.headSeq {
			continue // includes -1: operand was ready at dispatch
		}
		p := c.robAt(dep)
		if !p.issued || p.doneCycle <= c.cycle {
			continue
		}
		if p.di.Class == isa.ClassLoad {
			return loadComponent(p.level), true
		}
		ok = true
	}
	return comp, ok
}

// SetTimeline attaches (or with nil detaches) an interval recorder. The
// next sample lands at the next stride multiple of the committed count,
// so sample boundaries are a pure function of the instruction stream.
func (c *Core) SetTimeline(t *Timeline) {
	c.tl = t
	if t != nil {
		c.tlNext = c.Stats.Committed - c.Stats.Committed%t.stride + t.stride
	}
}

// Timeline returns the attached interval recorder, or nil.
func (c *Core) Timeline() *Timeline { return c.tl }

// Run commits up to n further instructions, returning the number committed.
// It returns early (with fewer) only when the program halts and the
// pipeline drains.
func (c *Core) Run(n uint64) uint64 {
	return c.RunChunk(n, n)
}

// RunChunk commits roughly n further instructions while capping commit at
// hard (>= n) instructions, returning the number committed. It exists for
// chunked execution with cancellation polling: commit is throttled only at
// the hard target, so the boundary cycle of each chunk completes its full
// commit width and a sequence of RunChunk calls whose hard targets all
// point at the same phase end replays the exact cycle stream of one large
// Run call (RunChunk may overshoot n by up to the commit width minus one;
// it never exceeds hard). RunChunk(n, n) is identical to Run(n).
func (c *Core) RunChunk(n, hard uint64) uint64 {
	before := c.Stats.Committed
	target := before + n
	hardTarget := before + hard
	if hardTarget < target {
		hardTarget = target // also guards overflow of before+hard
	}
	c.runTarget = hardTarget
	for c.Stats.Committed < target {
		if c.traceDone && c.robCount() == 0 && c.fqCount == 0 {
			break
		}
		c.step()
	}
	return c.Stats.Committed - before
}

// Drain runs the pipeline until every in-flight instruction has committed,
// without fetching further (used at the end of a SMARTS detailed sample
// before switching back to functional warming). Fetching is suppressed by
// temporarily marking the trace done.
func (c *Core) Drain() {
	saved := c.traceDone
	c.traceDone = true
	c.runTarget = ^uint64(0)
	for c.robCount() > 0 || c.fqCount > 0 {
		c.step()
	}
	c.traceDone = saved
	// The frontend must re-fetch the next block after a drain.
	c.lastFetchBlock = 0
}

// Done reports whether the program has halted and fully committed.
func (c *Core) Done() bool {
	return c.traceDone && c.robCount() == 0 && c.fqCount == 0 && c.src.SrcDone()
}

// InFlight returns the number of fetched-but-uncommitted instructions.
func (c *Core) InFlight() int { return c.robCount() + c.fqCount }
