package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sim"
)

// alwaysError is a plan that fails every one of the first n calls.
func alwaysError(n int) faultinject.Plan {
	p := faultinject.Plan{Faults: map[int]faultinject.Kind{}}
	for i := 1; i <= n; i++ {
		p.Faults[i] = faultinject.Error
	}
	return p
}

func newTestEngine() *Engine {
	e := NewEngine(sim.ScaleTest)
	e.Obs = obs.NewRegistry()
	return e
}

// TestEnginePanicIsolated proves one crashing technique run cannot take
// down a sweep: the panic is recovered into a typed *RunError wrapping a
// *PanicError, counted, and never cached.
func TestEnginePanicIsolated(t *testing.T) {
	e := newTestEngine()
	calls := new(atomic.Int64)
	w := faultinject.Wrap(fakeTech{id: "p", calls: calls}, faultinject.PanicOn(1))

	_, err := e.Run(bench.Mcf, w, sim.BaseConfig())
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RunError", err, err)
	}
	if re.Phase != PhasePanic || re.Attempts != 1 {
		t.Errorf("RunError phase=%s attempts=%d, want panic/1", re.Phase, re.Attempts)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause %v does not unwrap to *PanicError", re.Cause)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if got := e.Obs.Counter("engine_panics_total").Value(); got != 1 {
		t.Errorf("engine_panics_total = %d, want 1", got)
	}

	// The failure must not be cached: the next request runs fresh and,
	// with the plan exhausted, succeeds.
	if _, err := e.Run(bench.Mcf, w, sim.BaseConfig()); err != nil {
		t.Fatalf("run after recovered panic failed: %v", err)
	}
	if got := w.Calls(); got != 2 {
		t.Errorf("wrapper calls = %d, want 2 (panic not cached)", got)
	}
}

// TestEngineRetriesTransient asserts the exact retry count: a technique
// failing transiently twice succeeds on the third attempt under a
// three-attempt policy, with every counter matching.
func TestEngineRetriesTransient(t *testing.T) {
	e := newTestEngine()
	e.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	calls := new(atomic.Int64)
	w := faultinject.Wrap(fakeTech{id: "t", calls: calls}, faultinject.TransientUntil(3))

	res, err := e.Run(bench.Mcf, w, sim.BaseConfig())
	if err != nil {
		t.Fatalf("run failed despite retries: %v", err)
	}
	if res.Stats.Instructions != 1 {
		t.Errorf("wrong result: %+v", res.Stats)
	}
	if got := w.Calls(); got != 3 {
		t.Errorf("wrapper calls = %d, want exactly 3", got)
	}
	tel := e.Telemetry()
	if tel.Retries != 2 || tel.Failures != 0 || tel.Runs != 1 {
		t.Errorf("telemetry = %+v, want 2 retries, 0 failures, 1 run", tel)
	}
	if got := e.Obs.Counter("engine_retries_total").Value(); got != 2 {
		t.Errorf("engine_retries_total = %d, want 2", got)
	}
	if got := e.Obs.Counter("engine_failures_total").Value(); got != 0 {
		t.Errorf("engine_failures_total = %d, want 0", got)
	}
}

// TestEngineRetriesExhausted: when the fault outlives the policy the run
// fails with the attempt count recorded, and the failure is counted once.
func TestEngineRetriesExhausted(t *testing.T) {
	e := newTestEngine()
	e.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	calls := new(atomic.Int64)
	w := faultinject.Wrap(fakeTech{id: "x", calls: calls}, faultinject.TransientUntil(5))

	_, err := e.Run(bench.Mcf, w, sim.BaseConfig())
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Attempts != 3 || re.Phase != PhaseRun {
		t.Errorf("RunError attempts=%d phase=%s, want 3/run", re.Attempts, re.Phase)
	}
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) {
		t.Error("injected cause lost through the retry loop")
	}
	if got := w.Calls(); got != 3 {
		t.Errorf("wrapper calls = %d, want exactly 3", got)
	}
	tel := e.Telemetry()
	if tel.Retries != 2 || tel.Failures != 1 || tel.Runs != 0 {
		t.Errorf("telemetry = %+v, want 2 retries, 1 failure, 0 runs", tel)
	}
}

// TestEnginePermanentNotRetried: non-transient errors fail on the first
// attempt even under a retrying policy.
func TestEnginePermanentNotRetried(t *testing.T) {
	e := newTestEngine()
	e.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	calls := new(atomic.Int64)
	w := faultinject.Wrap(fakeTech{id: "e", calls: calls}, faultinject.ErrorOn(1))

	_, err := e.Run(bench.Mcf, w, sim.BaseConfig())
	if err == nil {
		t.Fatal("expected a failure")
	}
	if got := w.Calls(); got != 1 {
		t.Errorf("wrapper calls = %d, want 1 (permanent error must not retry)", got)
	}
	if tel := e.Telemetry(); tel.Retries != 0 {
		t.Errorf("retries = %d, want 0", tel.Retries)
	}
}

// blockTech blocks inside Run until released, so tests can hold a key
// in-flight while other callers pile up on it.
type blockTech struct {
	id      string
	calls   *atomic.Int64
	started chan struct{} // receives one token per Run entry
	release chan struct{} // Run returns when it can receive
	err     error
}

func (b blockTech) Name() string        { return "block-" + b.id }
func (b blockTech) Family() core.Family { return core.FamilyRunZ }

func (b blockTech) Run(core.Context) (core.Result, error) {
	b.calls.Add(1)
	b.started <- struct{}{}
	<-b.release
	if b.err != nil {
		return core.Result{}, b.err
	}
	return core.Result{Stats: sim.Stats{Cycles: 2, Instructions: 1}}, nil
}

// TestEngineSharedErrorAccounting: a single-flight waiter that inherits a
// failure is counted as a shared error, never as a cache hit.
func TestEngineSharedErrorAccounting(t *testing.T) {
	e := newTestEngine()
	calls := new(atomic.Int64)
	boom := errors.New("boom")
	tech := blockTech{id: "s", calls: calls, started: make(chan struct{}, 1),
		release: make(chan struct{}), err: boom}

	errA := make(chan error, 1)
	go func() {
		_, err := e.Run(bench.Mcf, tech, sim.BaseConfig())
		errA <- err
	}()
	<-tech.started // the key is now in flight

	errB := make(chan error, 1)
	go func() {
		_, err := e.Run(bench.Mcf, tech, sim.BaseConfig())
		errB <- err
	}()
	// Give the second caller time to park as a waiter, then fail the run.
	time.Sleep(100 * time.Millisecond)
	close(tech.release)

	ea, eb := <-errA, <-errB
	if !errors.Is(ea, boom) || !errors.Is(eb, boom) {
		t.Fatalf("errors = %v / %v, want both to wrap boom", ea, eb)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("technique ran %d times, want 1 (single-flight)", got)
	}
	tel := e.Telemetry()
	if tel.SharedErrors != 1 || tel.Hits != 0 || tel.Failures != 1 {
		t.Errorf("telemetry = %+v, want 1 shared error, 0 hits, 1 failure", tel)
	}
	if got := e.Obs.Counter("engine_shared_errors_total").Value(); got != 1 {
		t.Errorf("engine_shared_errors_total = %d, want 1", got)
	}
	if got := e.Obs.Counter("engine_cache_hits_total").Value(); got != 0 {
		t.Errorf("engine_cache_hits_total = %d, want 0", got)
	}
}

// TestEngineWaiterCancellation: a waiter whose own context ends abandons
// the in-flight run without disturbing its owner.
func TestEngineWaiterCancellation(t *testing.T) {
	e := newTestEngine()
	calls := new(atomic.Int64)
	tech := blockTech{id: "w", calls: calls, started: make(chan struct{}, 1),
		release: make(chan struct{})}

	errA := make(chan error, 1)
	go func() {
		_, err := e.Run(bench.Mcf, tech, sim.BaseConfig())
		errA <- err
	}()
	<-tech.started

	ctx, cancel := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx, bench.Mcf, tech, sim.BaseConfig())
		errB <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}

	close(tech.release) // the owner finishes normally
	if err := <-errA; err != nil {
		t.Fatalf("owner failed: %v", err)
	}
	if got := e.Obs.Counter("engine_cancellations_total").Value(); got != 1 {
		t.Errorf("engine_cancellations_total = %d, want 1", got)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("technique ran %d times, want 1", got)
	}
}

// TestEngineHangCancelledByDeadline: a hung technique is abandoned when the
// context deadline expires, classified as a cancellation, and not retried.
func TestEngineHangCancelledByDeadline(t *testing.T) {
	e := newTestEngine()
	e.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	calls := new(atomic.Int64)
	w := faultinject.Wrap(fakeTech{id: "h", calls: calls}, faultinject.HangOn(1))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.RunContext(ctx, bench.Mcf, w, sim.BaseConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Phase != PhaseCanceled {
		t.Errorf("err = %v, want *RunError with phase canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if got := w.Calls(); got != 1 {
		t.Errorf("wrapper calls = %d, want 1 (cancellation must not retry)", got)
	}
	if got := e.Obs.Counter("engine_cancellations_total").Value(); got != 1 {
		t.Errorf("engine_cancellations_total = %d, want 1", got)
	}
}

// TestFigurePartialResults drives a real figure with one always-failing
// technique: every healthy cell still renders and the report names the
// casualty, while FailFast restores the abort-on-first-error behavior.
func TestFigurePartialResults(t *testing.T) {
	good := core.RunZ{Z: 1000}
	bad := faultinject.Wrap(core.RunZ{Z: 900}, alwaysError(1000))
	techniques := func(bench.Name) []core.Technique {
		return []core.Technique{good, bad}
	}

	o := tinyOptions()
	o.Scale = sim.Scale{Unit: 20}
	o.Benches = []bench.Name{bench.Mcf}
	o.TechniquesFn = techniques
	res, err := Figure6(o, bench.Mcf, nil)
	if err != nil {
		t.Fatalf("figure aborted instead of degrading: %v", err)
	}
	// Both enhancement rows of the healthy technique survive; the failing
	// technique's bars are gone.
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (healthy technique only): %+v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row.Technique != good.Name() {
			t.Errorf("unexpected surviving row for %s", row.Technique)
		}
	}
	completed, failed, skipped := o.Report().Counts()
	if failed != 1 || skipped != 0 {
		t.Errorf("report counts completed=%d failed=%d skipped=%d, want exactly 1 failure", completed, failed, skipped)
	}
	cells := o.Report().Cells()
	if len(cells) != 1 || cells[0].Technique != bad.Name() || cells[0].Status != CellFailed {
		t.Errorf("report cells = %+v, want the failing technique named", cells)
	}
	if !o.Report().HasFailures() {
		t.Error("HasFailures() = false after a failed cell")
	}

	// FailFast aborts on the same corpus.
	ff := tinyOptions()
	ff.Scale = sim.Scale{Unit: 20}
	ff.Benches = []bench.Name{bench.Mcf}
	ff.TechniquesFn = techniques
	ff.FailFast = true
	bad2 := faultinject.Wrap(core.RunZ{Z: 900}, alwaysError(1000))
	ff.TechniquesFn = func(bench.Name) []core.Technique {
		return []core.Technique{good, bad2}
	}
	if _, err := Figure6(ff, bench.Mcf, nil); err == nil {
		t.Fatal("FailFast run did not abort on the injected failure")
	}
}

// TestEmptyWindowCellsFailInProfileAndAttr: vpr-route is shorter than the
// two longest fast-forwards, so their windows measure nothing. PROFILE and
// ATTR record those cells as failed and finish, instead of aborting the
// whole artifact on the first empty profile or CPI stack.
func TestEmptyWindowCellsFailInProfileAndAttr(t *testing.T) {
	empty := []core.Technique{
		core.FFRun{X: 4000, Z: 1000},
		core.FFWURun{X: 3900, Y: 100, Z: 1000},
	}
	options := func() *Options {
		o := DefaultOptions()
		o.Scale = sim.ScaleTest
		o.Benches = []bench.Name{bench.VprRoute}
		o.TechniquesFn = func(bench.Name) []core.Technique { return empty }
		return o
	}
	check := func(artifact string, rows int, o *Options) {
		t.Helper()
		if rows != 0 {
			t.Errorf("%s: %d rows from empty windows, want 0", artifact, rows)
		}
		cells := o.Report().Cells()
		if len(cells) != len(empty) {
			t.Fatalf("%s: report cells = %+v, want the %d empty-window cells", artifact, cells, len(empty))
		}
		for i, c := range cells {
			if c.Artifact != artifact || c.Technique != empty[i].Name() || c.Status != CellFailed {
				t.Errorf("%s: cell %d = %+v, want %s failed", artifact, i, c, empty[i].Name())
			}
		}
	}

	po := options()
	defer po.Close()
	prows, err := ProfileCharacterization(po, 0.05)
	if err != nil {
		t.Fatalf("PROFILE aborted instead of recording failed cells: %v", err)
	}
	check("PROFILE", len(prows), po)

	ao := options()
	defer ao.Close()
	arows, err := CPIAttribution(ao)
	if err != nil {
		t.Fatalf("ATTR aborted instead of recording failed cells: %v", err)
	}
	check("ATTR", len(arows), ao)
}

// TestOptionsCancelledSweep: a cancelled sweep context aborts a driver even
// in degrade mode — there is no point recording every remaining cell as
// failed when the whole campaign is being torn down.
func TestOptionsCancelledSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tinyOptions()
	o.Benches = []bench.Name{bench.Mcf}
	o.TechniquesFn = tinyTechniques
	o.Ctx = ctx
	_, err := Figure6(o, bench.Mcf, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
