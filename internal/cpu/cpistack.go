package cpu

import "repro/internal/mem"

// CPIComponent names one component of the CPI stack: the conservation-
// checked decomposition of every core cycle into the reason the cycle was
// spent. Exactly one component is charged per cycle (see attributeCycle),
// so the components always sum to CoreStats.Cycles.
type CPIComponent uint8

// The CPI-stack components. Base covers cycles that committed work or
// were spent executing non-memory instructions at the head of the window;
// Frontend covers fetch starvation and I-cache refill; Branch covers
// waiting on an unresolved or mispredicted branch; L1D/L2/Mem cover head
// loads (or stalled consumers of loads) served by that level; Structural
// covers contention — a ready head blocked from committing, or a head
// waiting on a functional unit or port rather than a producer.
const (
	CPIBase CPIComponent = iota
	CPIFrontend
	CPIBranch
	CPIL1D
	CPIL2
	CPIMem
	CPIStructural
	NumCPIComponents
)

// String names the component in the stable export form.
func (c CPIComponent) String() string {
	switch c {
	case CPIBase:
		return "base"
	case CPIFrontend:
		return "frontend"
	case CPIBranch:
		return "branch"
	case CPIL1D:
		return "l1d"
	case CPIL2:
		return "l2"
	case CPIMem:
		return "mem"
	case CPIStructural:
		return "structural"
	default:
		return "unknown"
	}
}

// CPIComponentNames lists every component name in index order, for export
// loops that label the stack without switch statements.
var CPIComponentNames = [NumCPIComponents]string{
	"base", "frontend", "branch", "l1d", "l2", "mem", "structural",
}

// loadComponent maps the memory level that served a load to the CPI-stack
// component its stall cycles are charged to.
func loadComponent(l mem.Level) CPIComponent {
	switch l {
	case mem.LevelL2:
		return CPIL2
	case mem.LevelMem:
		return CPIMem
	default:
		return CPIL1D
	}
}

// DefaultTimelineStride is the interval width of the timeline recorder in
// committed instructions: fine enough to resolve program phases at the
// scales the experiments run, coarse enough that a full reference run fits
// the default ring.
const DefaultTimelineStride = 100_000

// DefaultTimelineCapacity bounds the resident sample ring.
const DefaultTimelineCapacity = 4096

// TimelineSample is one fixed-stride interval record. Every field is an
// integer delta over the interval (rates are derived at export time), so
// samples are a pure function of the deterministic cycle stream: the same
// cell produces byte-identical samples at any worker count, replayed or
// emulated, restored from a checkpoint or fast-forwarded.
type TimelineSample struct {
	// At is the core's cumulative committed-instruction count when the
	// sample was taken (detailed instructions only; functional warming
	// between samples does not advance it).
	At uint64 `json:"at"`

	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`

	// CycleStack is the interval's CPI-stack decomposition; the
	// components sum exactly to Cycles.
	CycleStack [NumCPIComponents]uint64 `json:"cycle_stack"`

	BranchLookups     uint64 `json:"branch_lookups"`
	BranchMispredicts uint64 `json:"branch_mispredicts"`
	L1DAccesses       uint64 `json:"l1d_accesses"`
	L1DMisses         uint64 `json:"l1d_misses"`
	L2Accesses        uint64 `json:"l2_accesses"`
	L2Misses          uint64 `json:"l2_misses"`
	ITLBMisses        uint64 `json:"itlb_misses"`
	DTLBMisses        uint64 `json:"dtlb_misses"`
}

// IPC is the interval's committed instructions per cycle.
func (s TimelineSample) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate is the interval's mispredictions per branch lookup.
func (s TimelineSample) MispredictRate() float64 {
	if s.BranchLookups == 0 {
		return 0
	}
	return float64(s.BranchMispredicts) / float64(s.BranchLookups)
}

// L1DMissRate is the interval's L1D miss ratio.
func (s TimelineSample) L1DMissRate() float64 {
	if s.L1DAccesses == 0 {
		return 0
	}
	return float64(s.L1DMisses) / float64(s.L1DAccesses)
}

// L2MissRate is the interval's L2 miss ratio.
func (s TimelineSample) L2MissRate() float64 {
	if s.L2Accesses == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Accesses)
}

// Timeline is the interval recorder: a preallocated bounded ring of
// fixed-stride samples the core writes into as it commits. It follows the
// obs.Journal cost contract — a core with no timeline attached pays one
// nil check per cycle and never allocates; an attached timeline samples
// into preallocated storage, also without allocating.
//
// Sampling never throttles commit: the core checks the committed count
// after each full-width commit, so a sample boundary can overshoot the
// stride by up to CommitWidth-1 instructions and the cycle stream is
// identical with the recorder attached or not.
type Timeline struct {
	stride uint64
	buf    []TimelineSample
	total  uint64

	// mark holds the cumulative counter values at the previous sample,
	// reusing the sample layout so the delta loop is field-by-field.
	mark TimelineSample
}

// NewTimeline returns a recorder sampling every stride committed
// instructions, keeping the most recent capacity samples (stride < 1 uses
// DefaultTimelineStride; capacity < 1 uses DefaultTimelineCapacity).
func NewTimeline(stride uint64, capacity int) *Timeline {
	if stride < 1 {
		stride = DefaultTimelineStride
	}
	if capacity < 1 {
		capacity = DefaultTimelineCapacity
	}
	return &Timeline{stride: stride, buf: make([]TimelineSample, capacity)}
}

// Stride returns the sampling stride in committed instructions.
func (t *Timeline) Stride() uint64 { return t.stride }

// Len returns the number of samples resident in the ring.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Total returns the number of samples ever recorded (resident or
// overwritten).
func (t *Timeline) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Samples returns the resident samples oldest-first.
func (t *Timeline) Samples() []TimelineSample {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]TimelineSample, n)
	for i := 0; i < n; i++ {
		seq := t.total - uint64(n) + uint64(i)
		out[i] = t.buf[seq%uint64(len(t.buf))]
	}
	return out
}

// record takes one sample from the core's cumulative counters and returns
// the committed-instruction threshold of the next sample. It reads only
// deterministic simulation state — core stats, predictor counters, cache
// and TLB statistics — never the host clock.
func (t *Timeline) record(c *Core) uint64 {
	cum := TimelineSample{
		At:                c.Stats.Committed,
		Instructions:      c.Stats.Committed,
		Cycles:            c.Stats.Cycles,
		CycleStack:        c.Stats.CycleStack,
		BranchLookups:     c.pred.Lookups,
		BranchMispredicts: c.pred.Mispredict,
		L1DAccesses:       c.hier.L1D.Stats.Accesses,
		L1DMisses:         c.hier.L1D.Stats.Misses,
		L2Accesses:        c.hier.L2.Stats.Accesses,
		L2Misses:          c.hier.L2.Stats.Misses,
		ITLBMisses:        c.hier.ITLB.Misses,
		DTLBMisses:        c.hier.DTLB.Misses,
	}
	s := cum
	s.Instructions -= t.mark.Instructions
	s.Cycles -= t.mark.Cycles
	for i := range s.CycleStack {
		s.CycleStack[i] -= t.mark.CycleStack[i]
	}
	s.BranchLookups -= t.mark.BranchLookups
	s.BranchMispredicts -= t.mark.BranchMispredicts
	s.L1DAccesses -= t.mark.L1DAccesses
	s.L1DMisses -= t.mark.L1DMisses
	s.L2Accesses -= t.mark.L2Accesses
	s.L2Misses -= t.mark.L2Misses
	s.ITLBMisses -= t.mark.ITLBMisses
	s.DTLBMisses -= t.mark.DTLBMisses
	t.mark = cum
	t.buf[t.total%uint64(len(t.buf))] = s
	t.total++
	return c.Stats.Committed - c.Stats.Committed%t.stride + t.stride
}
