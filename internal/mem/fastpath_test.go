package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCachePrefetchEvictedFirst is the regression test for the prefetch
// stamp bug: a prefetched line must be inserted at LRU-friendly position
// (strictly older than every live line), so a never-touched prefetch is
// the next victim — not shielded behind an MRU stamp.
func TestCachePrefetchEvictedFirst(t *testing.T) {
	// One 2-way set of 64B blocks: 128B cache. Blocks A, B, C, D all map
	// to set 0.
	c := mustCache(t, CacheConfig{SizeKB: 1, Assoc: 2, BlockBytes: 64, Latency: 1})
	const setStride = 1 * 1024 // sets * blockBytes
	a, b, d, x := uint64(0), uint64(setStride), uint64(2*setStride), uint64(3*setStride)
	c.Access(a, false) // stamp 1
	c.Access(b, false) // stamp 2
	if !c.Prefetch(d) {
		t.Fatal("prefetch of absent block should be useful")
	}
	// The prefetch evicted LRU line a and must now be older than b.
	if c.Probe(a) {
		t.Fatal("prefetch should have evicted the LRU line")
	}
	c.Access(x, false) // miss: victim must be the untouched prefetch
	if !c.Probe(b) {
		t.Error("demand miss evicted the demand-fetched line instead of the untouched prefetch")
	}
	if c.Probe(d) {
		t.Error("untouched prefetched line survived a demand miss")
	}
}

// TestCachePrefetchIntoInvalidWay pins that a prefetch landing in a free
// way still gets an older-than-live stamp rather than MRU.
func TestCachePrefetchIntoInvalidWay(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeKB: 1, Assoc: 2, BlockBytes: 64, Latency: 1})
	const setStride = 1 * 1024
	a, d, x := uint64(0), uint64(setStride), uint64(2*setStride)
	// Age the demand line well past the prefetch's stamp floor.
	for i := 0; i < 5; i++ {
		c.Access(a, false)
	}
	c.Prefetch(d) // free way: stamp must be < a's stamp 5
	c.Access(x, false)
	if !c.Probe(a) {
		t.Error("demand line evicted before the untouched prefetch")
	}
	if c.Probe(d) {
		t.Error("untouched prefetched line outlived a demand line")
	}
}

// cacheStream drives a randomized access/prefetch/probe stream through c
// and returns every observable outcome (the TestGoldenStreams corpus).
func cacheStream(c *Cache, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for i := 0; i < n; i++ {
		// Small address space so sets thrash and the same block repeats
		// (exercising the way memo); occasionally touch a fresh range.
		addr := uint64(rng.Intn(1 << 14))
		if rng.Intn(16) == 0 {
			addr += 1 << 20
		}
		switch rng.Intn(8) {
		case 0:
			if c.Prefetch(addr) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case 1:
			if c.Probe(addr) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		default:
			hit, wb, ev := c.Access(addr, rng.Intn(3) == 0)
			v := uint64(0)
			if hit {
				v |= 1
			}
			if wb {
				v |= 2
			}
			out = append(out, v, ev)
		}
	}
	out = append(out, c.Stats.Accesses, c.Stats.Misses, c.Stats.Writebacks,
		c.Stats.Prefetches, c.Stats.AssumedHits)
	return out
}

// tlbStream drives a skewed random page stream (long same-page streaks,
// periodic thrashing beyond capacity) and digests hit bits and stats.
func tlbStream(tb *TLB, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	addr := uint64(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0: // jump far: forces misses and LRU evictions
			addr = uint64(rng.Intn(64)) * 97 * PageBytes
		case 1, 2: // nearby page
			addr = (addr/PageBytes+uint64(rng.Intn(5)))*PageBytes + uint64(rng.Intn(PageBytes))
		default: // same-page streak (the MRU filter's common case)
			addr += uint64(rng.Intn(256))
		}
		if tb.Access(addr) {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return append(out, tb.Accesses, tb.Misses)
}

// TestTLBFastReset pins that Reset returns the open-addressed table to a
// truly empty state (a stale key would corrupt later probe chains).
func TestTLBFastReset(t *testing.T) {
	tb, err := NewTLB(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tb.Access(uint64(i) * 13 * PageBytes)
	}
	tb.Reset()
	if tb.Accesses != 0 || tb.Misses != 0 {
		t.Fatalf("stats survive Reset: %d/%d", tb.Accesses, tb.Misses)
	}
	for i := 0; i < 4; i++ {
		if tb.Access(uint64(i+1000)*PageBytes) != false {
			t.Fatal("post-Reset access hit a stale translation")
		}
	}
}

// randomReqs builds a request slab with realistic locality: bursts of
// sequential fetches with interleaved loads/stores.
func randomReqs(seed int64, n int) []MemReq {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]MemReq, 0, n)
	pc := uint64(0)
	for len(reqs) < n {
		pc += uint64(rng.Intn(3)) * 4
		if rng.Intn(32) == 0 {
			pc = uint64(rng.Intn(1<<16)) * 4
		}
		reqs = append(reqs, MemReq{Addr: pc, Kind: ReqIFetch})
		switch rng.Intn(4) {
		case 0:
			reqs = append(reqs, MemReq{Addr: uint64(rng.Intn(1 << 18)), Kind: ReqLoad})
		case 1:
			reqs = append(reqs, MemReq{Addr: uint64(rng.Intn(1 << 18)), Kind: ReqStore})
		}
	}
	return reqs
}

// TestWarmBatchMatchesWarmCalls: streaming a slab through WarmBatch must
// leave the hierarchy in exactly the state per-request WarmI/WarmD calls
// produce, for both prefetch policies.
func TestWarmBatchMatchesWarmCalls(t *testing.T) {
	for _, pf := range []PrefetchPolicy{PrefetchNone, PrefetchNextLine} {
		reqs := randomReqs(42, 50000)
		ha, hb := testHierarchy(t, pf), testHierarchy(t, pf)
		ha.WarmBatch(reqs)
		for _, r := range reqs {
			switch r.Kind {
			case ReqIFetch:
				hb.WarmI(r.Addr)
			case ReqLoad:
				hb.WarmD(r.Addr, false)
			case ReqStore:
				hb.WarmD(r.Addr, true)
			}
		}
		if a, b := ha.Snap(), hb.Snap(); !reflect.DeepEqual(a, b) {
			t.Fatalf("prefetch %v: WarmBatch state diverges:\nbatch: %+v\ncalls: %+v", pf, a, b)
		}
	}
}

// TestAccessBatchMatchesAccessCalls: the timed batch must produce the same
// per-request latencies, total, and state as individual AccessI/AccessD.
func TestAccessBatchMatchesAccessCalls(t *testing.T) {
	reqs := randomReqs(7, 20000)
	ha, hb := testHierarchy(t, PrefetchNextLine), testHierarchy(t, PrefetchNextLine)
	lats := make([]int, len(reqs))
	total := ha.AccessBatch(reqs, lats)
	sum := 0
	for i, r := range reqs {
		var lat int
		switch r.Kind {
		case ReqIFetch:
			lat = hb.AccessI(r.Addr)
		case ReqLoad:
			lat = hb.AccessD(r.Addr, false)
		case ReqStore:
			lat = hb.AccessD(r.Addr, true)
		}
		if lat != lats[i] {
			t.Fatalf("req %d: batch latency %d != call latency %d", i, lats[i], lat)
		}
		sum += lat
	}
	if total != sum {
		t.Fatalf("batch total %d != sum of latencies %d", total, sum)
	}
	if a, b := ha.Snap(), hb.Snap(); !reflect.DeepEqual(a, b) {
		t.Fatalf("AccessBatch state diverges:\nbatch: %+v\ncalls: %+v", a, b)
	}
}

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := NewCache(CacheConfig{SizeKB: 32, Assoc: 4, BlockBytes: 64, Latency: 1}, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCacheAccess measures the demand-access path over a strided
// stream with same-block repeats (the pattern the way memo targets).
func BenchmarkCacheAccess(b *testing.B) {
	c := benchCache(b)
	addr := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Three touches per block, then advance; wraps at 1MiB so the
		// cache stays under capacity pressure.
		c.Access(addr, i&7 == 0)
		c.Access(addr+8, false)
		c.Access(addr+16, false)
		addr = (addr + 64) & (1<<20 - 1)
	}
}

// BenchmarkHierarchyWarmBatch measures the functional-warming pipeline:
// one realistic request slab streamed through WarmBatch per iteration.
func BenchmarkHierarchyWarmBatch(b *testing.B) {
	reqs := randomReqs(1, 512)
	h, err := NewHierarchy(HierarchyConfig{
		L1I:           CacheConfig{SizeKB: 16, Assoc: 2, BlockBytes: 64, Latency: 1},
		L1D:           CacheConfig{SizeKB: 16, Assoc: 4, BlockBytes: 64, Latency: 2},
		L2:            CacheConfig{SizeKB: 256, Assoc: 8, BlockBytes: 128, Latency: 8},
		MemFirst:      100,
		MemFollow:     4,
		ITLBEntries:   64,
		DTLBEntries:   128,
		TLBMissCycles: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WarmBatch(reqs)
	}
}
