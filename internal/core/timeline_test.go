package core

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

func cycleStackSum(s sim.Stats) uint64 {
	var sum uint64
	for _, v := range s.Core.CycleStack {
		sum += v
	}
	return sum
}

// TestCPIStackConservationAllBenchmarks: the reference decomposition is
// exact on every benchmark in the suite — the acceptance invariant for the
// cycle-accounting layer.
func TestCPIStackConservationAllBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(string(b), func(t *testing.T) {
			res, err := Reference{}.Run(testCtx(b))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Core.Cycles == 0 {
				t.Fatal("no cycles recorded")
			}
			if got, want := cycleStackSum(res.Stats), res.Stats.Core.Cycles; got != want {
				t.Errorf("cycle stack sums to %d, core ran %d cycles", got, want)
			}
		})
	}
}

// TestCPIStackConservationAcrossTechniques: sampling, fast-forwarding, and
// weighted aggregation (SMARTS, SimPoint) all preserve the invariant on
// their reported stats.
func TestCPIStackConservationAcrossTechniques(t *testing.T) {
	ctx := testCtx(bench.Gzip)
	techs := []Technique{
		RunZ{Z: 300},
		FFRun{X: 1000, Z: 300},
		FFWURun{X: 900, Y: 100, Z: 300},
		RandomSample{N: 4, U: 2000, W: 500},
		SimPoint{IntervalM: 10, MaxK: 5, WarmupM: 1, Seeds: 2, MaxIter: 20},
		SMARTS{U: 1000, W: 2000},
	}
	for _, tech := range techs {
		t.Run(tech.Name(), func(t *testing.T) {
			res, err := tech.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Core.Cycles == 0 {
				t.Fatal("no cycles recorded")
			}
			if got, want := cycleStackSum(res.Stats), res.Stats.Core.Cycles; got != want {
				t.Errorf("cycle stack sums to %d, core ran %d cycles", got, want)
			}
		})
	}
}

// timelineCtx asks techniques to record at a stride small enough that the
// short test-scale runs produce a meaningful sample train.
func timelineCtx(b bench.Name) Context {
	ctx := testCtx(b)
	ctx.TimelineStride = 500
	return ctx
}

// TestTimelineThroughTechniques: every technique that runs a detailed core
// surfaces interval samples on its Result when a stride is requested, and
// none when it is not.
func TestTimelineThroughTechniques(t *testing.T) {
	techs := []Technique{
		Reference{},
		RunZ{Z: 2000},
		FFRun{X: 1000, Z: 2000},
		FFWURun{X: 900, Y: 100, Z: 2000},
		RandomSample{N: 4, U: 2000, W: 800},
		SimPoint{IntervalM: 10, MaxK: 5, WarmupM: 1, Seeds: 2, MaxIter: 20},
		SMARTS{U: 1000, W: 2000},
	}
	for _, tech := range techs {
		t.Run(tech.Name(), func(t *testing.T) {
			off, err := tech.Run(testCtx(bench.Gzip))
			if err != nil {
				t.Fatal(err)
			}
			if len(off.Timeline) != 0 {
				t.Errorf("stride 0 still recorded %d samples", len(off.Timeline))
			}
			on, err := tech.Run(timelineCtx(bench.Gzip))
			if err != nil {
				t.Fatal(err)
			}
			if len(on.Timeline) == 0 {
				t.Fatal("stride 500 recorded no samples")
			}
			for i, s := range on.Timeline {
				var sum uint64
				for _, v := range s.CycleStack {
					sum += v
				}
				if sum != s.Cycles {
					t.Errorf("sample %d stack sums to %d over %d cycles", i, sum, s.Cycles)
				}
			}
			// Observation only: stats are identical with recording on.
			if !reflect.DeepEqual(off.Stats, on.Stats) {
				t.Errorf("recording changed stats:\noff: %+v\non:  %+v", off.Stats, on.Stats)
			}
		})
	}
}

// TestTimelineInvariantAcrossTraceReplay: a replayed functional stream
// feeds the detailed core the identical instructions, so recorded,
// replayed, and store-off runs produce byte-identical timelines.
func TestTimelineInvariantAcrossTraceReplay(t *testing.T) {
	ctx := timelineCtx(bench.Gzip)
	tech := FFRun{X: 1000, Z: 2000}

	prev := TraceStore()
	SetTraceStore(nil)
	off, err := tech.Run(ctx)
	SetTraceStore(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Timeline) == 0 {
		t.Fatal("no samples recorded")
	}
	withFreshTraceStore(t, DefaultTraceBudget, func(s *trace.Store) {
		cold, err := tech.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := tech.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(off.Timeline, cold.Timeline) {
			t.Error("recording arm's timeline diverges from store-off timeline")
		}
		if !reflect.DeepEqual(off.Timeline, warm.Timeline) {
			t.Error("replay arm's timeline diverges from store-off timeline")
		}
	})
}

// TestTimelineInvariantAcrossCheckpoints: restoring a shared functional
// prefix instead of re-emulating it leaves the detailed stream — and so
// the timeline — untouched.
func TestTimelineInvariantAcrossCheckpoints(t *testing.T) {
	prevTr := TraceStore()
	SetTraceStore(nil)
	defer SetTraceStore(prevTr)

	ctx := timelineCtx(bench.Gzip)
	tech := FFRun{X: 1000, Z: 2000}

	prev := CheckpointStore()
	SetCheckpointStore(nil)
	off, err := tech.Run(ctx)
	SetCheckpointStore(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Timeline) == 0 {
		t.Fatal("no samples recorded")
	}
	ResetCheckpointCache()
	cold, err := tech.Run(ctx) // records the prefix checkpoint
	if err != nil {
		t.Fatal(err)
	}
	warm, err := tech.Run(ctx) // restores it
	if err != nil {
		t.Fatal(err)
	}
	ResetCheckpointCache()
	if !reflect.DeepEqual(off.Timeline, cold.Timeline) {
		t.Error("checkpoint-recording run's timeline diverges from store-off timeline")
	}
	if !reflect.DeepEqual(off.Timeline, warm.Timeline) {
		t.Error("checkpoint-restoring run's timeline diverges from store-off timeline")
	}
	// cpu.TimelineSample is a flat value type, so DeepEqual equality here
	// really is byte identity.
	var _ cpu.TimelineSample = off.Timeline[0]
}
