package trace

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

func newTestStore(maxBytes int64) *Store {
	s := New(maxBytes)
	s.Obs = obs.NewRegistry()
	return s
}

// region builds a dense test region of n records starting at start.
func region(start uint64, n int, final bool) *Region {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{PC: int32(i)}
	}
	if final && n > 0 {
		recs[n-1].Flags |= flagHalt
	}
	return &Region{Start: start, Recs: recs, Final: final}
}

func TestPackFlagsRoundTrip(t *testing.T) {
	kinds := []isa.TrivialKind{
		isa.NotTrivial, isa.TrivialIdentity, isa.TrivialConstant, isa.TrivialSimple,
	}
	for _, taken := range []bool{false, true} {
		for _, halt := range []bool{false, true} {
			for _, tk := range kinds {
				r := Rec{Flags: PackFlags(taken, tk, halt)}
				if r.Taken() != taken || r.Trivial() != tk || r.Halt() != halt {
					t.Errorf("PackFlags(%v, %v, %v) round-tripped to (%v, %v, %v)",
						taken, tk, halt, r.Taken(), r.Trivial(), r.Halt())
				}
			}
		}
	}
}

func TestRegionCovers(t *testing.T) {
	rg := region(100, 50, false)
	for _, tc := range []struct {
		start, want uint64
		covered     bool
	}{
		{100, 50, true},  // exact
		{100, 51, false}, // one past the end
		{120, 30, true},  // suffix
		{99, 1, false},   // before the start
		{150, 1, false},  // at the end
		{120, 0, true},   // empty window inside
	} {
		if got := rg.Covers(tc.start, tc.want); got != tc.covered {
			t.Errorf("Covers(%d, %d) = %v, want %v", tc.start, tc.want, got, tc.covered)
		}
	}

	// A Final region covers any window at or past its start: the stream
	// has no further instructions.
	fin := region(100, 50, true)
	for _, tc := range []struct {
		start, want uint64
		covered     bool
	}{
		{100, 1 << 30, true},
		{1 << 20, 1 << 20, true},
		{99, 1, false},
	} {
		if got := fin.Covers(tc.start, tc.want); got != tc.covered {
			t.Errorf("final Covers(%d, %d) = %v, want %v", tc.start, tc.want, got, tc.covered)
		}
	}
}

func TestWindowRecordsOnceAndReplays(t *testing.T) {
	s := newTestStore(1 << 20)
	id := ProgID{Name: "p", FP: 1}
	produced := 0
	produce := func() (*Region, error) {
		produced++
		return region(0, 1000, false), nil
	}

	rg, owned, err := s.Window(context.Background(), id, 0, 1000, produce)
	if err != nil || !owned || rg == nil {
		t.Fatalf("first Window = (%v, %v, %v), want owned region", rg, owned, err)
	}
	// Second request, and a shorter suffix window, both replay.
	for _, start := range []uint64{0, 400} {
		rg, owned, err := s.Window(context.Background(), id, start, 500, produce)
		if err != nil || owned || rg == nil || !rg.Covers(start, 500) {
			t.Fatalf("Window(%d) = (%v, %v, %v), want covering hit", start, rg, owned, err)
		}
	}
	if produced != 1 {
		t.Errorf("produce ran %d times, want 1", produced)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.RecordedBytes == 0 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

func TestWindowSingleFlight(t *testing.T) {
	s := newTestStore(1 << 20)
	id := ProgID{Name: "p", FP: 1}
	var produced atomic.Int32
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*Region, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rg, _, err := s.Window(context.Background(), id, 0, 100, func() (*Region, error) {
				produced.Add(1)
				<-release
				return region(0, 100, false), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = rg
		}(i)
	}
	// Let the goroutines pile onto the flight, then release the owner.
	for {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n == 1 {
			break
		}
	}
	close(release)
	wg.Wait()

	if n := produced.Load(); n != 1 {
		t.Errorf("produce ran %d times under contention, want 1", n)
	}
	for i, rg := range results {
		if rg == nil || !rg.Covers(0, 100) {
			t.Errorf("waiter %d got %v, want the recorded region", i, rg)
		}
	}
}

func TestWindowOwnerFailureUnblocksWaiters(t *testing.T) {
	s := newTestStore(1 << 20)
	id := ProgID{Name: "p", FP: 1}
	boom := errors.New("boom")

	_, owned, err := s.Window(context.Background(), id, 0, 100, func() (*Region, error) {
		return nil, boom
	})
	if !owned || !errors.Is(err, boom) {
		t.Fatalf("owner got (%v, %v), want its own failure back", owned, err)
	}
	// The failed flight is released: the next request becomes a new owner.
	rg, owned, err := s.Window(context.Background(), id, 0, 100, func() (*Region, error) {
		return region(0, 100, false), nil
	})
	if err != nil || !owned || rg == nil {
		t.Fatalf("retry after failure = (%v, %v, %v), want fresh ownership", rg, owned, err)
	}
}

func TestWindowWaitCancellation(t *testing.T) {
	s := newTestStore(1 << 20)
	id := ProgID{Name: "p", FP: 1}
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		s.Window(context.Background(), id, 0, 100, func() (*Region, error) {
			<-release
			return region(0, 100, false), nil
		})
	}()
	for {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n == 1 {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Window(ctx, id, 0, 100, nil); err == nil {
		t.Error("cancelled wait returned nil error")
	}
	close(release)
	<-ownerDone
}

func TestStoreBudgetAndLRUEviction(t *testing.T) {
	rgBytes := region(0, 100, false).Bytes()
	s := newTestStore(3 * rgBytes)
	id := ProgID{Name: "p", FP: 1}

	for i := 0; i < 5; i++ {
		s.Put(id, region(uint64(i*1000), 100, false))
		if st := s.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("after put %d: resident %d exceeds budget %d", i, st.Bytes, st.MaxBytes)
		}
	}
	st := s.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Errorf("stats = %+v, want 3 resident / 2 evicted", st)
	}
	// The oldest regions were evicted; the newest survive.
	if s.Covering(id, 0, 100) != nil || s.Covering(id, 4000, 100) == nil {
		t.Error("LRU evicted the wrong end")
	}

	// A region larger than the whole budget is not cached at all.
	s.Put(id, region(9000, 10000, false))
	if s.Covering(id, 9000, 100) != nil {
		t.Error("over-budget region was cached")
	}
}

func TestPutKeepsLongerRegionOnSameStart(t *testing.T) {
	s := newTestStore(1 << 20)
	id := ProgID{Name: "p", FP: 1}
	s.Put(id, region(0, 500, false))
	s.Put(id, region(0, 100, false)) // racing shorter recording loses
	if rg := s.Covering(id, 0, 400); rg == nil || len(rg.Recs) != 500 {
		t.Errorf("shorter same-start region displaced the longer one: %v", rg)
	}
	s.Put(id, region(0, 800, false)) // longer recording wins
	if rg := s.Covering(id, 0, 700); rg == nil || len(rg.Recs) != 800 {
		t.Errorf("longer same-start region did not replace: %v", rg)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Errorf("same-start replacement counted as eviction pressure: %+v", st)
	}
}

// TestSameStartReplacementIsNotAnEviction: swapping in a longer region
// recorded at the same start unlinks the shorter one, but nothing left the
// store under budget pressure, so the evictions counter, the
// trace_evictions_total series and the journal's evict events must all
// stay at zero.
func TestSameStartReplacementIsNotAnEviction(t *testing.T) {
	s := newTestStore(1 << 20)
	s.Journal = obs.NewJournal(64)
	s.Journal.SetEnabled(true)
	id := ProgID{Name: "p", FP: 1}
	s.Put(id, region(10, 5, false))
	s.Put(id, region(10, 50, false))
	if rg := s.Covering(id, 10, 50); rg == nil || len(rg.Recs) != 50 {
		t.Fatalf("longer same-start region did not replace: %v", rg)
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 1 || st.Bytes != region(10, 50, false).Bytes() {
		t.Errorf("stats after replacement = %+v, want 1 resident region and no evictions", st)
	}
	if n := s.Obs.Counter("trace_evictions_total").Value(); n != 0 {
		t.Errorf("trace_evictions_total = %d after a same-start replacement, want 0", n)
	}
	for _, e := range s.Journal.Tail(64) {
		if e.Kind == obs.EvTraceEvict {
			t.Errorf("journal holds an evict event for a same-start replacement: %+v", e)
		}
	}
}

func TestStoreReset(t *testing.T) {
	s := newTestStore(1 << 20)
	id := ProgID{Name: "p", FP: 1}
	if _, _, err := s.Window(context.Background(), id, 0, 100, func() (*Region, error) {
		return region(0, 100, false), nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	st := s.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 || st.RecordedBytes != 0 {
		t.Errorf("Reset left state: %+v", st)
	}
	if s.Covering(id, 0, 100) != nil {
		t.Error("Reset left a resident region")
	}
}
