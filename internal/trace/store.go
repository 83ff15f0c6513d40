package trace

import (
	"container/list"
	"context"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// flight is one in-progress recording; waiters block on done and read rg
// afterwards (nil when the owner failed or produced nothing cacheable).
type flight struct {
	done chan struct{}
	rg   *Region
}

// entry is one resident region; list elements hold *entry.
type entry struct {
	key   Key
	rg    *Region
	bytes int64
}

// Stats is a point-in-time snapshot of the store's accounting.
type Stats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Waits         int64 `json:"waits"`          // single-flight waits on another run's recording
	RecordedBytes int64 `json:"recorded_bytes"` // cumulative bytes recorded (not net of eviction)
}

// HitRate returns the fraction of Window requests served by replay.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Store is a byte-bounded LRU trace-region cache with single-flight
// recording. The zero value is not useful; use New.
type Store struct {
	// Obs is the registry receiving the store's instrumentation
	// (trace_hits_total, trace_misses_total, trace_evictions_total,
	// trace_singleflight_waits_total, trace_resident_bytes,
	// trace_entries). Nil uses obs.Default. Set before the first use.
	Obs *obs.Registry

	// Journal receives the store's flight-recorder events (hit, miss,
	// evict, keyed "prog@start"). Nil uses obs.DefaultJournal, disabled
	// by default and free when off.
	Journal *obs.Journal

	mu       sync.Mutex
	maxBytes int64
	lru      *list.List // front = most recently used
	entries  map[Key]*list.Element
	byProg   map[ProgID][]uint64 // resident region starts, ascending
	bytes    int64
	inflight map[Key]*flight

	hits, misses, evictions, waits, recordedBytes int64

	metricsOnce sync.Once
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mEvictions  *obs.Counter
	mWaits      *obs.Counter
	mBytes      *obs.Gauge
	mEntries    *obs.Gauge
}

// New creates a store bounded to maxBytes of resident trace data.
func New(maxBytes int64) *Store {
	return &Store{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		byProg:   make(map[ProgID][]uint64),
		inflight: make(map[Key]*flight),
	}
}

// initMetrics binds the registry series (lazily, so Obs can be assigned
// after construction).
func (s *Store) initMetrics() {
	s.metricsOnce.Do(func() {
		r := s.Obs
		if r == nil {
			r = obs.Default
		}
		s.mHits = r.Counter("trace_hits_total")
		s.mMisses = r.Counter("trace_misses_total")
		s.mEvictions = r.Counter("trace_evictions_total")
		s.mWaits = r.Counter("trace_singleflight_waits_total")
		s.mBytes = r.Gauge("trace_resident_bytes")
		s.mEntries = r.Gauge("trace_entries")
	})
}

// journal returns the store's flight recorder (never nil).
func (s *Store) journal() *obs.Journal {
	if s.Journal != nil {
		return s.Journal
	}
	return obs.DefaultJournal
}

// eventKey renders a region key for journal subjects.
func eventKey(k Key) string {
	return k.Prog.Name + "@" + strconv.FormatUint(k.Start, 10)
}

// record emits one store event when the flight recorder is on.
func (s *Store) record(kind obs.EventKind, k Key, n int64) {
	if j := s.journal(); j.Enabled() {
		j.Record(obs.Event{Kind: kind, Actor: -1, Subject: eventKey(k), N: n})
	}
}

// Window returns a recorded region covering [start, start+want) for the
// program, recording it when absent. On a hit (including a successful
// single-flight wait) it returns (rg, false, nil): the caller replays rg.
// On a miss this caller becomes the owner: produce is invoked and must
// record the window by executing it, returning the region (or nil to
// cache nothing). The owner gets (rg, true, err) back: its machine has
// already executed the window, no replay needed. When a waited-on owner
// fails — or records a region that does not actually cover the window —
// waiters get (nil, false, nil) and fall back to emulating. A cancelled
// ctx aborts a wait with its error; the owner's recording continues for
// the owner.
func (s *Store) Window(ctx context.Context, id ProgID, start, want uint64, produce func() (*Region, error)) (*Region, bool, error) {
	s.initMetrics()
	k := Key{Prog: id, Start: start}

	s.mu.Lock()
	if rg := s.coveringLocked(id, start, want); rg != nil {
		s.hits++
		s.mu.Unlock()
		s.mHits.Inc()
		s.record(obs.EvTraceHit, k, rg.Bytes())
		return rg, false, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.waits++
		s.mu.Unlock()
		s.mWaits.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.rg == nil || !f.rg.Covers(start, want) {
			return nil, false, nil // owner failed or fell short; caller falls back
		}
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		s.mHits.Inc()
		s.record(obs.EvTraceHit, k, f.rg.Bytes())
		return f.rg, false, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[k] = f
	s.misses++
	s.mu.Unlock()
	s.mMisses.Inc()
	s.record(obs.EvTraceMiss, k, int64(want))

	completed := false
	defer func() {
		if !completed { // produce panicked: release waiters empty-handed
			s.finishFlight(k, f, nil)
		}
	}()
	rg, err := produce()
	if err != nil {
		rg = nil
	}
	completed = true
	s.finishFlight(k, f, rg)
	return rg, true, err
}

// Covering returns a resident region covering [start, start+want),
// counting neither hit nor miss, or nil.
func (s *Store) Covering(id ProgID, start, want uint64) *Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coveringLocked(id, start, want)
}

// coveringLocked scans resident regions starting at or before start, from
// the nearest backwards, for one covering the window. It touches the LRU
// on success. Regions per program are few (one per distinct window start
// a sweep uses), so the backward scan is short.
func (s *Store) coveringLocked(id ProgID, start, want uint64) *Region {
	ps := s.byProg[id]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] > start })
	for j := i - 1; j >= 0; j-- {
		el, ok := s.entries[Key{Prog: id, Start: ps[j]}]
		if !ok {
			continue
		}
		rg := el.Value.(*entry).rg
		if rg.Covers(start, want) {
			s.lru.MoveToFront(el)
			return rg
		}
		if !rg.Final && rg.End() <= start {
			// Regions are recorded forward from their start; an earlier
			// region is at least as short-reaching unless Final.
			continue
		}
	}
	return nil
}

// Put inserts a region directly (tests; Window owners insert through
// their produce return).
func (s *Store) Put(id ProgID, rg *Region) {
	s.initMetrics()
	s.mu.Lock()
	s.putLocked(Key{Prog: id, Start: rg.Start}, rg)
	s.mu.Unlock()
	s.updateGauges()
}

// finishFlight publishes a recording result and releases the key. It is
// also invoked from a deferred guard so a panicking produce cannot strand
// waiters on a flight that will never complete.
func (s *Store) finishFlight(k Key, f *flight, rg *Region) {
	s.mu.Lock()
	delete(s.inflight, k)
	f.rg = rg
	close(f.done)
	if rg != nil {
		s.recordedBytes += rg.Bytes()
		s.putLocked(k, rg)
	}
	s.mu.Unlock()
	if rg != nil {
		s.updateGauges()
	}
}

// putLocked inserts under s.mu, evicting LRU entries past the byte bound.
// Regions larger than the whole budget are not cached at all.
func (s *Store) putLocked(k Key, rg *Region) {
	cost := rg.Bytes()
	if cost > s.maxBytes {
		return
	}
	if el, ok := s.entries[k]; ok {
		// Racing owners at the same start: keep the longer region.
		en := el.Value.(*entry)
		if rg.End() <= en.rg.End() {
			s.lru.MoveToFront(el)
			return
		}
		s.unlinkLocked(el) // replacement, not pressure: no eviction
	}
	el := s.lru.PushFront(&entry{key: k, rg: rg, bytes: cost})
	s.entries[k] = el
	s.insertPosLocked(k)
	s.bytes += cost
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		s.evictLocked(s.lru.Back())
	}
}

// unlinkLocked drops one resident element from the LRU, the key map, the
// position index and the byte total under s.mu, counting nothing.
func (s *Store) unlinkLocked(el *list.Element) *entry {
	en := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.entries, en.key)
	s.removePosLocked(en.key)
	s.bytes -= en.bytes
	return en
}

// evictLocked removes one element under budget pressure, under s.mu, and
// accounts it as an eviction.
func (s *Store) evictLocked(el *list.Element) {
	en := s.unlinkLocked(el)
	s.evictions++
	s.mEvictions.Inc()
	s.record(obs.EvTraceEvict, en.key, en.bytes)
}

// insertPosLocked records a resident start in the per-program sorted
// index.
func (s *Store) insertPosLocked(k Key) {
	ps := s.byProg[k.Prog]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= k.Start })
	ps = append(ps, 0)
	copy(ps[i+1:], ps[i:])
	ps[i] = k.Start
	s.byProg[k.Prog] = ps
}

// removePosLocked drops a start from the per-program sorted index.
func (s *Store) removePosLocked(k Key) {
	ps := s.byProg[k.Prog]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= k.Start })
	if i < len(ps) && ps[i] == k.Start {
		ps = append(ps[:i], ps[i+1:]...)
	}
	if len(ps) == 0 {
		delete(s.byProg, k.Prog)
	} else {
		s.byProg[k.Prog] = ps
	}
}

// updateGauges publishes the resident size outside s.mu.
func (s *Store) updateGauges() {
	s.mu.Lock()
	b, n := s.bytes, s.lru.Len()
	s.mu.Unlock()
	s.mBytes.Set(float64(b))
	s.mEntries.Set(float64(n))
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:       s.lru.Len(),
		Bytes:         s.bytes,
		MaxBytes:      s.maxBytes,
		Hits:          s.hits,
		Misses:        s.misses,
		Evictions:     s.evictions,
		Waits:         s.waits,
		RecordedBytes: s.recordedBytes,
	}
}

// MaxBytes returns the store's resident-byte budget. Recording callers
// consult it up front: a span whose region could never fit is not worth
// recording at all.
func (s *Store) MaxBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxBytes
}

// Counters returns the hit/miss counters and the cumulative recorded
// bytes. The scheduler brackets every cell with this read to attribute
// trace traffic, so it skips the full Stats construction.
func (s *Store) Counters() (hits, misses, recordedBytes int64) {
	s.mu.Lock()
	hits, misses, recordedBytes = s.hits, s.misses, s.recordedBytes
	s.mu.Unlock()
	return hits, misses, recordedBytes
}

// Reset drops every resident region and zeroes the counters (tests and
// sweep teardown). In-progress recordings are unaffected: their waiters
// still receive the produced region, it just is not cached.
func (s *Store) Reset() {
	s.initMetrics()
	s.mu.Lock()
	s.lru.Init()
	s.entries = make(map[Key]*list.Element)
	s.byProg = make(map[ProgID][]uint64)
	s.bytes = 0
	s.hits, s.misses, s.evictions, s.waits, s.recordedBytes = 0, 0, 0, 0, 0
	s.mu.Unlock()
	s.updateGauges()
}
