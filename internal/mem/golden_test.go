package mem

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_streams.jsonl from the current engines")

const goldenPath = "testdata/golden_streams.jsonl"

// goldenStream is one outcome stream of the corpus, kept as a digest: the
// stream's length in words and the FNV-1a 64 hash of its little-endian
// encoding.
type goldenStream struct {
	Name   string `json:"name"`
	Words  int    `json:"words"`
	Digest string `json:"digest"`
}

func digestStream(name string, words []uint64) goldenStream {
	h := fnv.New64a()
	buf := make([]byte, 0, 8*len(words))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf)
	return goldenStream{Name: name, Words: len(words), Digest: fmt.Sprintf("%016x", h.Sum64())}
}

// reqSpan bounds the addresses randomReqs and the next-line prefetcher
// can touch, so a residency sweep over [0, reqSpan) sees every line the
// request streams may have installed.
const reqSpan = 1 << 19

// hierarchyWords appends the observable state of h to words: every
// counter of every level, both TLBs' access and miss counts, and the
// residency of each cache block in [0, reqSpan) as a bitmap per cache.
func hierarchyWords(h *Hierarchy, words []uint64) []uint64 {
	s := h.Snap()
	for _, c := range []CacheStats{s.L1I, s.L1D, s.L2} {
		words = append(words, c.Accesses, c.Misses, c.Writebacks, c.Prefetches, c.AssumedHits)
	}
	words = append(words, h.ITLB.Accesses, s.ITLBMisses, h.DTLB.Accesses, s.DTLBMisses)
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		var bitmap uint64
		n := 0
		for a := uint64(0); a < reqSpan; a += uint64(c.BlockBytes()) {
			if c.Probe(a) {
				bitmap |= 1 << (n & 63)
			}
			if n++; n&63 == 0 {
				words = append(words, bitmap)
				bitmap = 0
			}
		}
		words = append(words, bitmap)
	}
	return words
}

// coldCacheStream runs many short access/prefetch streams, each on a
// fresh cache, over a few blocks that share one set. The cache's clock
// stays near zero there, where a prefetch's LRU-friendly stamp meets its
// floor of 1 and can tie the set's oldest line, so the exact stamp every
// hit leaves behind decides the victim.
func coldCacheStream(t *testing.T, cfg CacheConfig, seed int64, trials, n int) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	setStride := uint64(cfg.SizeKB * 1024 / cfg.Assoc) // sets * block bytes
	var out []uint64
	for k := 0; k < trials; k++ {
		c := mustCache(t, cfg)
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(cfg.Assoc+2))*setStride + uint64(rng.Intn(cfg.BlockBytes))
			if rng.Intn(4) == 0 {
				if c.Prefetch(addr) {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
				continue
			}
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
		out = append(out, c.Stats.Accesses, c.Stats.Misses, c.Stats.Writebacks, c.Stats.Prefetches)
	}
	return out
}

// goldenStreams runs every stream of the corpus on fresh structures:
// randomized cache streams under each replacement policy, warm and cold,
// TLB streams at four capacities, and request slabs through WarmBatch and
// AccessBatch (final hierarchy state, plus every latency for the timed
// path) under both prefetch policies.
func goldenStreams(t *testing.T) []goldenStream {
	t.Helper()
	var out []goldenStream
	for _, pol := range []Replacement{ReplaceLRU, ReplaceFIFO, ReplaceRandom} {
		cfg := CacheConfig{SizeKB: 2, Assoc: 4, BlockBytes: 64, Latency: 1, Replace: pol}
		for seed := int64(1); seed <= 5; seed++ {
			name := fmt.Sprintf("cache/%v/seed%d", pol, seed)
			out = append(out, digestStream(name, cacheStream(mustCache(t, cfg), seed, 20000)))
		}
	}
	for _, pol := range []Replacement{ReplaceLRU, ReplaceFIFO, ReplaceRandom} {
		cfg := CacheConfig{SizeKB: 1, Assoc: 2, BlockBytes: 64, Latency: 1, Replace: pol}
		for seed := int64(1); seed <= 5; seed++ {
			name := fmt.Sprintf("cache-cold/%v/seed%d", pol, seed)
			out = append(out, digestStream(name, coldCacheStream(t, cfg, seed, 1000, 8)))
		}
	}
	for _, entries := range []int{1, 2, 8, 16} {
		for seed := int64(1); seed <= 5; seed++ {
			tb, err := NewTLB(entries)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("tlb/%d/seed%d", entries, seed)
			out = append(out, digestStream(name, tlbStream(tb, seed, 20000)))
		}
	}
	for _, pf := range []PrefetchPolicy{PrefetchNone, PrefetchNextLine} {
		h := testHierarchy(t, pf)
		h.WarmBatch(randomReqs(42, 50000))
		out = append(out, digestStream("warm-batch/"+pf.String(), hierarchyWords(h, nil)))

		h = testHierarchy(t, pf)
		reqs := randomReqs(7, 20000)
		lats := make([]int, len(reqs))
		total := h.AccessBatch(reqs, lats)
		words := make([]uint64, 0, len(lats)+1)
		for _, l := range lats {
			words = append(words, uint64(l))
		}
		words = append(words, uint64(total))
		out = append(out, digestStream("access-batch/"+pf.String(), hierarchyWords(h, words)))
	}
	return out
}

// TestGoldenStreams pins the caches, the TLB and the batched hierarchy
// paths to a committed corpus of outcome-stream digests. The corpus was
// generated by the plain engines (a full way scan on every cache access
// and a page map with a scanned LRU victim in the TLB), so the way memo,
// the open-addressed TLB and its deferred MRU stamp are held to them. Run
// with -update to regenerate after a change meant to move outcomes.
func TestGoldenStreams(t *testing.T) {
	got := goldenStreams(t)
	if *update {
		writeGoldenStreams(t, got)
		return
	}
	want := readGoldenStreams(t)
	if len(want) != len(got) {
		t.Fatalf("golden corpus has %d streams, the run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stream %d: got %+v, golden %+v", i, got[i], want[i])
		}
	}
}

func writeGoldenStreams(t *testing.T, recs []goldenStream) {
	t.Helper()
	var sb strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d streams to %s", len(recs), goldenPath)
}

func readGoldenStreams(t *testing.T) []goldenStream {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/mem/ -run TestGoldenStreams -update)", err)
	}
	defer f.Close()
	var out []goldenStream
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r goldenStream
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
