package cpu

import (
	"fmt"
	"math"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
)

// Emu is the functional emulator: it executes the architectural semantics
// of a program with no notion of time. It is the single source of truth for
// architectural state; the detailed core replays its instruction stream for
// timing only, so functional and detailed execution can never diverge.
type Emu struct {
	Prog *program.Program

	R [isa.NumIntRegs]int64
	F [isa.NumFPRegs]float64

	// Mem is the data memory as 64-bit words; effective addresses are byte
	// addresses masked into it.
	Mem      []int64
	wordMask uint64
	byteMask uint64

	PC     int32
	Halted bool

	// Count is the number of dynamic instructions executed so far.
	Count uint64

	// DetectTrivial enables trivial-computation classification on each
	// executed instruction (needed only by the TC enhancement study).
	DetectTrivial bool

	// dec is the program's decode table, built once per emulator; Step
	// indexes it instead of re-decoding the opcode per dynamic instruction.
	dec []decInst

	// recording/rec implement the trace sink: while recording is on, Step
	// appends one trace.Rec per retired instruction. The off path costs a
	// single predictable branch (see TestHotLoopsDoNotAllocate).
	recording bool
	rec       []trace.Rec
}

// NewEmu creates an emulator with freshly initialized architectural state.
func NewEmu(p *program.Program) *Emu {
	e := &Emu{Prog: p, dec: decodeProgram(p)}
	e.Reset()
	return e
}

// Reset restores the power-on architectural state: zero registers, initial
// data image, entry PC.
func (e *Emu) Reset() {
	p := e.Prog
	e.R = [isa.NumIntRegs]int64{}
	e.F = [isa.NumFPRegs]float64{}
	if len(e.Mem) != p.MemWords {
		e.Mem = make([]int64, p.MemWords)
	} else {
		for i := range e.Mem {
			e.Mem[i] = 0
		}
	}
	for _, seg := range p.DataInit {
		copy(e.Mem[seg.WordAddr:], seg.Words)
	}
	e.wordMask = uint64(p.MemWords - 1)
	e.byteMask = uint64(p.MemWords*8 - 1)
	e.PC = int32(p.Entry)
	e.Halted = false
	e.Count = 0
}

// ea computes the effective byte address of a memory operation.
func (e *Emu) ea(base isa.Reg, imm int64) uint64 {
	return uint64(e.R[base]+imm) & e.byteMask
}

// Step executes one instruction, filling di with its dynamic record.
// It returns false when the machine has halted (di is then invalid).
//
// The static portion of di is a single copy of the pre-decoded template
// (see decode.go); the switch dispatches on the pre-resolved kind, so no
// opcode classification, immediate-form mapping, or FP register offset
// arithmetic happens per dynamic instruction.
func (e *Emu) Step(di *DynInst) bool {
	if e.Halted {
		return false
	}
	pc := e.PC
	d := &e.dec[pc]
	*di = d.tmpl

	next := pc + 1
	setInt := func(r isa.Reg, v int64) {
		if r != 0 { // R0 is hardwired to zero
			e.R[r] = v
		}
	}

	switch d.kind {
	case dNop:
	case dIntRR:
		a, b := e.R[di.SrcA], e.R[di.SrcB]
		if e.DetectTrivial {
			di.Trivial, _ = isa.TrivialInt(d.base, a, b)
		}
		setInt(di.Dst, intALU(d.base, a, b))
	case dIntRI:
		a := e.R[di.SrcA]
		if e.DetectTrivial {
			di.Trivial, _ = isa.TrivialInt(d.base, a, d.imm)
		}
		setInt(di.Dst, intALU(d.base, a, d.imm))
	case dLI:
		setInt(di.Dst, d.imm)
	case dFPArith:
		a, b := e.F[d.fa], e.F[d.fb]
		if e.DetectTrivial {
			di.Trivial, _ = isa.TrivialFP(di.Op, a, b)
		}
		e.F[d.fd] = fpALU(di.Op, a, b)
	case dFNeg:
		e.F[d.fd] = -e.F[d.fa]
	case dFSlt:
		v := int64(0)
		if e.F[d.fa] < e.F[d.fb] {
			v = 1
		}
		setInt(di.Dst, v)
	case dIToF:
		e.F[d.fd] = float64(e.R[di.SrcA])
	case dFToI:
		f := e.F[d.fa]
		switch {
		case math.IsNaN(f):
			setInt(di.Dst, 0)
		case f >= math.MaxInt64:
			setInt(di.Dst, math.MaxInt64)
		case f <= math.MinInt64:
			setInt(di.Dst, math.MinInt64)
		default:
			setInt(di.Dst, int64(f))
		}
	case dFMovI:
		e.F[d.fd] = d.fimm
	case dLd:
		addr := e.ea(di.SrcA, d.imm)
		di.Addr = addr
		setInt(di.Dst, e.Mem[(addr>>3)&e.wordMask])
	case dSt:
		addr := e.ea(di.SrcA, d.imm)
		di.Addr = addr
		e.Mem[(addr>>3)&e.wordMask] = e.R[di.SrcB]
	case dFLd:
		addr := e.ea(di.SrcA, d.imm)
		di.Addr = addr
		e.F[d.fd] = math.Float64frombits(uint64(e.Mem[(addr>>3)&e.wordMask]))
	case dFSt:
		addr := e.ea(di.SrcA, d.imm)
		di.Addr = addr
		e.Mem[(addr>>3)&e.wordMask] = int64(math.Float64bits(e.F[d.fb]))
	case dBeq:
		if e.R[di.SrcA] == e.R[di.SrcB] {
			di.Taken = true
			next = d.target
		}
	case dBne:
		if e.R[di.SrcA] != e.R[di.SrcB] {
			di.Taken = true
			next = d.target
		}
	case dBlt:
		if e.R[di.SrcA] < e.R[di.SrcB] {
			di.Taken = true
			next = d.target
		}
	case dBge:
		if e.R[di.SrcA] >= e.R[di.SrcB] {
			di.Taken = true
			next = d.target
		}
	case dJmp:
		di.Taken = true
		next = d.target
	case dJal:
		setInt(di.Dst, int64(pc+1))
		di.Taken = true
		next = d.target
	case dJr:
		di.Taken = true
		t := e.R[di.SrcA]
		if t < 0 || t >= int64(len(e.dec)) {
			panic(fmt.Sprintf("cpu: %s: jr through r%d to out-of-range pc %d at pc %d",
				e.Prog.Name, di.SrcA, t, pc))
		}
		next = int32(t)
	case dHalt:
		e.Halted = true
		e.Count++
		di.Next = pc
		if e.recording {
			e.rec = append(e.rec, trace.Rec{
				Addr: di.Addr, PC: di.PC, Next: di.Next,
				Flags: trace.PackFlags(di.Taken, di.Trivial, true),
			})
		}
		return true
	default:
		panic(fmt.Sprintf("cpu: unimplemented opcode %v at pc %d", di.Op, pc))
	}

	di.Next = next
	e.PC = next
	e.Count++
	if e.recording {
		e.rec = append(e.rec, trace.Rec{
			Addr: di.Addr, PC: di.PC, Next: next,
			Flags: trace.PackFlags(di.Taken, di.Trivial, false),
		})
	}
	return true
}

// StartRecording turns on the trace sink: every subsequently retired
// instruction appends one trace.Rec. capHint pre-sizes the record buffer
// so the hot loop appends without growing in the common case.
func (e *Emu) StartRecording(capHint int) {
	e.rec = make([]trace.Rec, 0, capHint)
	e.recording = true
}

// StopRecording turns the sink off and returns the records accumulated
// since StartRecording.
func (e *Emu) StopRecording() []trace.Rec {
	r := e.rec
	e.rec = nil
	e.recording = false
	return r
}

// Recording reports whether the trace sink is on.
func (e *Emu) Recording() bool { return e.recording }

// SrcPC returns the PC of the next instruction (InstSource).
func (e *Emu) SrcPC() int32 { return e.PC }

// SrcDone reports whether the stream is exhausted (InstSource).
func (e *Emu) SrcDone() bool { return e.Halted }

// decTable exposes the pre-decoded instruction table (InstSource).
func (e *Emu) decTable() []decInst { return e.dec }

func intALU(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << (uint64(b) & 63)
	case isa.SHR:
		return int64(uint64(a) >> (uint64(b) & 63))
	case isa.SLT:
		if a < b {
			return 1
		}
		return 0
	case isa.MUL:
		return a * b
	case isa.DIV:
		if b == 0 {
			return 0
		}
		if a == math.MinInt64 && b == -1 {
			return math.MinInt64 // architecturally defined overflow result
		}
		return a / b
	case isa.REM:
		if b == 0 {
			return 0
		}
		if a == math.MinInt64 && b == -1 {
			return 0
		}
		return a % b
	default:
		panic("cpu: intALU on non-ALU op " + op.String())
	}
}

func fpALU(op isa.Op, a, b float64) float64 {
	switch op {
	case isa.FADD:
		return a + b
	case isa.FSUB:
		return a - b
	case isa.FMUL:
		return a * b
	case isa.FDIV:
		return a / b
	default:
		panic("cpu: fpALU on non-FP op " + op.String())
	}
}

// immBaseOp maps a register-immediate opcode to its register-register
// equivalent for shared ALU evaluation.
func immBaseOp(op isa.Op) isa.Op {
	switch op {
	case isa.ADDI:
		return isa.ADD
	case isa.ANDI:
		return isa.AND
	case isa.ORI:
		return isa.OR
	case isa.XORI:
		return isa.XOR
	case isa.SHLI:
		return isa.SHL
	case isa.SHRI:
		return isa.SHR
	case isa.SLTI:
		return isa.SLT
	default:
		panic("cpu: immBaseOp on " + op.String())
	}
}

// Run executes up to n instructions with no side observation (pure
// fast-forwarding). It returns the number actually executed, which is less
// than n only if the program halted.
func (e *Emu) Run(n uint64) uint64 {
	var di DynInst
	var done uint64
	for done < n && e.Step(&di) {
		done++
	}
	return done
}

// Warmer is the micro-architectural state functionally warmed by RunWarm:
// the memory hierarchy and the branch prediction structures. Any field may
// be nil to skip warming that structure.
type Warmer struct {
	Hier *mem.Hierarchy
	Pred *branch.Predictor
	BTB  *branch.BTB
	RAS  *branch.RAS
}

// warmBranch applies one retired branch's outcome to the prediction
// structures. The caller has already established Class == ClassBranch.
func warmBranch(w Warmer, op isa.Op, pc, next int32, taken bool) {
	fetchAddr := uint64(pc) * isa.InstBytes
	if isa.IsCondBranch(op) && w.Pred != nil {
		w.Pred.Update(fetchAddr, taken)
	}
	if taken && w.BTB != nil && op != isa.JR {
		w.BTB.Update(fetchAddr, next)
	}
	if w.RAS != nil {
		switch op {
		case isa.JAL:
			w.RAS.Push(pc + 1)
		case isa.JR:
			w.RAS.Pop(next)
		}
	}
}

// warmInst applies one retired instruction to the warmed structures:
// its fetch, then its data access, then its branch outcome. The replaying
// warm loop applies a trace record in the same order.
func warmInst(di *DynInst, w Warmer) {
	if w.Hier != nil {
		w.Hier.WarmI(di.FetchAddr())
		if di.Class == isa.ClassLoad {
			w.Hier.WarmD(di.Addr, false)
		} else if di.Class == isa.ClassStore {
			w.Hier.WarmD(di.Addr, true)
		}
	}
	if di.Class == isa.ClassBranch {
		warmBranch(w, di.Op, di.PC, di.Next, di.Taken)
	}
}

// RunWarm executes up to n instructions while functionally warming caches,
// TLBs and branch prediction state, as SMARTS does between detailed samples.
func (e *Emu) RunWarm(n uint64, w Warmer) uint64 {
	var di DynInst
	var done uint64
	for done < n && e.Step(&di) {
		done++
		warmInst(&di, w)
	}
	return done
}

// Profile accumulates execution-profile counters: Entries[b] counts the
// times basic block b was entered (BBEF) and Instrs[b] counts instructions
// executed in it (BBV).
type Profile struct {
	Entries []int64
	Instrs  []int64
	Total   uint64
}

// NewProfile allocates a profile sized for the program.
func NewProfile(p *program.Program) *Profile {
	return &Profile{
		Entries: make([]int64, p.NumBlocks()),
		Instrs:  make([]int64, p.NumBlocks()),
	}
}

// Add accumulates other into p.
func (p *Profile) Add(other *Profile) {
	for i := range p.Entries {
		p.Entries[i] += other.Entries[i]
		p.Instrs[i] += other.Instrs[i]
	}
	p.Total += other.Total
}

// AddWeighted accumulates other into p with the given weight applied to all
// counts (used for SimPoint's weighted simulation points). Weights are
// applied in floating point and rounded.
func (p *Profile) AddWeighted(other *Profile, weight float64) {
	for i := range p.Entries {
		p.Entries[i] += int64(weight*float64(other.Entries[i]) + 0.5)
		p.Instrs[i] += int64(weight*float64(other.Instrs[i]) + 0.5)
	}
	p.Total += uint64(weight*float64(other.Total) + 0.5)
}

// profileInst accumulates one retired instruction into the profile.
// Block entry is the pre-decoded leader flag, so the hot loop never
// chases the Blocks slice. Shared by the emulating and replaying
// profile loops.
func profileInst(di *DynInst, dec []decInst, prof *Profile) {
	prof.Instrs[di.Block]++
	if dec[di.PC].leader {
		prof.Entries[di.Block]++
	}
}

// RunProfile executes up to n instructions while accumulating the
// execution profile.
func (e *Emu) RunProfile(n uint64, prof *Profile) uint64 {
	var di DynInst
	var done uint64
	for done < n && e.Step(&di) {
		done++
		profileInst(&di, e.dec, prof)
	}
	prof.Total += done
	return done
}
