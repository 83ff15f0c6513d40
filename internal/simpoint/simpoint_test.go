package simpoint

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// phasedProgram builds a program with two strongly different phases (an
// ALU-heavy loop then a memory-heavy loop), each spanning many intervals.
func phasedProgram(t testing.TB, iters int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("phased", 4096)

	// Phase A: arithmetic.
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), iters)
	topA := b.Here()
	b.Op3(isa.ADD, isa.R(10), isa.R(10), isa.R(2))
	b.OpI(isa.XORI, isa.R(11), isa.R(10), 0x55)
	b.OpI(isa.SHLI, isa.R(12), isa.R(11), 1)
	b.OpI(isa.ADDI, isa.R(1), isa.R(1), 1)
	b.Branch(isa.BLT, isa.R(1), isa.R(2), topA)

	// Phase B: memory.
	b.Li(isa.R(1), 0)
	topB := b.Here()
	b.OpI(isa.ANDI, isa.R(13), isa.R(1), 1023)
	b.OpI(isa.SHLI, isa.R(13), isa.R(13), 3)
	b.Ld(isa.R(14), isa.R(13), 0)
	b.OpI(isa.ADDI, isa.R(14), isa.R(14), 1)
	b.St(isa.R(14), isa.R(13), 0)
	b.OpI(isa.ADDI, isa.R(1), isa.R(1), 1)
	b.Branch(isa.BLT, isa.R(1), isa.R(2), topB)
	b.Halt()
	return b.MustBuild()
}

func testConfig(interval uint64, maxK int) Config {
	return Config{
		IntervalInstr: interval,
		MaxK:          maxK,
		Seeds:         3,
		MaxIter:       30,
		ProjectDim:    8,
		ProjectSeed:   1,
		BICThreshold:  0.9,
	}
}

func TestBuildPlanFindsTwoPhases(t *testing.T) {
	p := phasedProgram(t, 20000)
	plan, err := BuildPlan(p, testConfig(5000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if plan.K < 2 {
		t.Errorf("found %d phases, want >= 2 for a two-phase program", plan.K)
	}
	if plan.Intervals < 10 {
		t.Errorf("only %d intervals", plan.Intervals)
	}
	// Weights sum to ~1.
	var sum float64
	for _, pt := range plan.Points {
		sum += pt.Weight
		if pt.Start != uint64(pt.Interval)*plan.Cfg.IntervalInstr {
			t.Errorf("point start %d inconsistent with interval %d", pt.Start, pt.Interval)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %.4f", sum)
	}
	// Points must come from different phases. Phase A spans 20000*5 =
	// 100000 instructions = the first 20 intervals; phase B the rest.
	if plan.K >= 2 {
		lo, hi := false, false
		for _, pt := range plan.Points {
			if pt.Interval < 20 {
				lo = true
			} else {
				hi = true
			}
		}
		if !lo || !hi {
			t.Errorf("points %v do not cover both phases", plan.Points)
		}
	}
}

func TestWeightedProfileScalesToFullRun(t *testing.T) {
	p := phasedProgram(t, 20000)
	plan, err := BuildPlan(p, testConfig(5000, 10))
	if err != nil {
		t.Fatal(err)
	}
	prof := plan.WeightedProfile(p)
	total := int64(0)
	for _, v := range prof.Instrs {
		total += v
	}
	ratio := float64(total) / float64(plan.TotalInstr)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("weighted profile covers %.2fx of the run", ratio)
	}
}

func TestPlanForCaches(t *testing.T) {
	ResetCache()
	p := phasedProgram(t, 5000)
	cfg := testConfig(2000, 5)
	a, err := PlanFor(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor did not cache")
	}
	// A different interval is a different plan.
	c, err := PlanFor(p, testConfig(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different interval hit the same cache entry")
	}
}

// TestPlanForSingleFlight: callers that ask for the same plan at the same
// time wait for one build and all receive the same plan.
func TestPlanForSingleFlight(t *testing.T) {
	ResetCache()
	p := phasedProgram(t, 5000)
	cfg := testConfig(2000, 5)
	const callers = 8
	start := make(chan struct{})
	got := make([]*Plan, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plan, err := PlanFor(p, cfg)
			if err != nil {
				t.Error(err)
			}
			got[i] = plan
		}()
	}
	close(start)
	wg.Wait()
	for i, plan := range got {
		if plan == nil || plan != got[0] {
			t.Fatalf("caller %d got plan %p, caller 0 got %p: the plan was built more than once", i, plan, got[0])
		}
	}
	ResetCache()
	again, err := PlanFor(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again == got[0] {
		t.Error("ResetCache kept the memoized plan")
	}
}

// TestPlanForKeysByImage: two programs with the same name and code length
// but different data are different programs and get different plans.
func TestPlanForKeysByImage(t *testing.T) {
	ResetCache()
	a, b := phasedProgram(t, 5000), phasedProgram(t, 6000)
	if a.Name != b.Name || len(a.Code) != len(b.Code) {
		t.Fatal("test programs must share name and code length")
	}
	pa, err := PlanFor(a, testConfig(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PlanFor(b, testConfig(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Error("programs with different images shared a plan")
	}
}

func TestBuildPlanErrors(t *testing.T) {
	p := phasedProgram(t, 1000)
	if _, err := BuildPlan(p, Config{IntervalInstr: 0, MaxK: 5}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := BuildPlan(p, Config{IntervalInstr: 100, MaxK: 0}); err == nil {
		t.Error("zero MaxK accepted")
	}
	// Interval longer than the program: no full interval survives.
	if _, err := BuildPlan(p, testConfig(1<<40, 5)); err == nil {
		t.Error("oversized interval accepted")
	}
}

func TestSingleKPlan(t *testing.T) {
	p := phasedProgram(t, 10000)
	plan, err := BuildPlan(p, testConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 1 || len(plan.Points) != 1 {
		t.Errorf("K=%d points=%d, want single point", plan.K, len(plan.Points))
	}
	if plan.Points[0].Weight != 1 {
		t.Errorf("single point weight = %v, want 1", plan.Points[0].Weight)
	}
}
