package mem

import (
	"fmt"
	"math/bits"
)

// PageBytes is the architectural page size used by the TLBs.
const PageBytes = 4096

// TLB is a fully-associative translation lookaside buffer with true LRU
// replacement.
//
// The translations live in an open-addressed linear-probe table over two
// dense uint64 slices, so the victim scan that dominates TLB-bound
// workloads (mcf thrashes a 128-entry DTLB) is a linear min-scan, and the
// common same-page streak defers its stamp update entirely: the MRU page's
// stamp lives in lastStamp and is flushed into the table only when the
// streak ends, which is always before any LRU decision reads it. Stamps
// are unique, so this is exact LRU: TestGoldenStreams holds it to the
// outcomes of a page map with a scanned LRU victim.
type TLB struct {
	entries  int
	clock    uint64
	lastPage uint64 // MRU filter: most accesses hit the same page repeatedly
	lastOK   bool
	Accesses uint64
	Misses   uint64

	// The table's capacity is a power of two kept at most half full. keys
	// holds page+1 (0 = empty slot); stamps holds the LRU stamp, except
	// that the MRU page's current stamp is lastStamp until flushLast writes
	// it back. Deletions use backward-shift compaction, so there are no
	// tombstones to skip.
	keys      []uint64
	stamps    []uint64
	hashShift uint
	live      int
	lastIdx   int    // slot of lastPage; valid while lastOK
	lastStamp uint64 // deferred stamp of lastPage; valid while lastOK
}

// NewTLB creates a TLB with the given number of entries.
func NewTLB(entries int) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("mem: TLB needs at least one entry, got %d", entries)
	}
	cap := 1 << bits.Len(uint(2*entries-1)) // next power of two ≥ 2*entries
	return &TLB{
		entries:   entries,
		keys:      make([]uint64, cap),
		stamps:    make([]uint64, cap),
		hashShift: uint(64 - bits.Len(uint(cap-1))),
	}, nil
}

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return t.entries }

// Reset clears all translations and statistics.
func (t *TLB) Reset() {
	t.clock = 0
	t.lastOK = false
	t.Accesses = 0
	t.Misses = 0
	for i := range t.keys {
		t.keys[i] = 0
	}
	t.live = 0
}

// Access translates addr, returning true on a TLB hit. Misses install the
// page, evicting the least recently used translation when full.
func (t *TLB) Access(addr uint64) bool {
	t.Accesses++
	t.clock++
	page := addr / PageBytes
	if t.lastOK && page == t.lastPage {
		t.lastStamp = t.clock // deferred: flushed before any LRU scan
		return true
	}
	return t.fastAccess(page)
}

// slotOf returns the home slot of a key (page+1) via a multiplicative hash.
func (t *TLB) slotOf(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.hashShift)
}

// flushLast writes the deferred MRU stamp back into the table. Must run
// before anything reads or rearranges stamps/slots.
func (t *TLB) flushLast() {
	if t.lastOK {
		t.stamps[t.lastIdx] = t.lastStamp
	}
}

// fastAccess is the lookup/install path for a page that is not the
// current MRU page.
func (t *TLB) fastAccess(page uint64) bool {
	key := page + 1
	mask := len(t.keys) - 1
	i := t.slotOf(key)
	for {
		k := t.keys[i]
		if k == key {
			// Hit: this page becomes the MRU page; its stamp is deferred.
			t.flushLast()
			t.lastPage, t.lastOK = page, true
			t.lastIdx, t.lastStamp = i, t.clock
			return true
		}
		if k == 0 {
			break
		}
		i = (i + 1) & mask
	}
	t.Misses++
	t.flushLast()
	t.lastOK = false // no deferred stamp while we rearrange the table
	if t.live >= t.entries {
		// Dense LRU victim scan over the whole table. The table is ≤ half
		// full and contiguous in memory, so this is a short linear read.
		victim := -1
		oldest := ^uint64(0)
		for j, k := range t.keys {
			if k != 0 && t.stamps[j] < oldest {
				oldest = t.stamps[j]
				victim = j
			}
		}
		t.remove(victim)
	}
	idx := t.insert(key, t.clock)
	t.lastPage, t.lastOK = page, true
	t.lastIdx, t.lastStamp = idx, t.clock
	return false
}

// insert places key at its first free probe slot and returns the slot.
func (t *TLB) insert(key, stamp uint64) int {
	mask := len(t.keys) - 1
	i := t.slotOf(key)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	t.stamps[i] = stamp
	t.live++
	return i
}

// remove deletes slot i with backward-shift compaction: subsequent probe
// chain members whose home slot lies at or before the hole are moved back
// into it, so lookups never need tombstones.
func (t *TLB) remove(i int) {
	mask := len(t.keys) - 1
	j := i
	for {
		t.keys[i] = 0
		for {
			j = (j + 1) & mask
			if t.keys[j] == 0 {
				t.live--
				return
			}
			h := t.slotOf(t.keys[j])
			// keys[j] may fill the hole at i iff its home slot h does not
			// lie cyclically inside (i, j] — i.e. its probe distance
			// reaches back to i.
			if ((j - h) & mask) >= ((j - i) & mask) {
				t.keys[i] = t.keys[j]
				t.stamps[i] = t.stamps[j]
				i = j
				break
			}
		}
	}
}

// MissRate returns the miss ratio, or 0 when idle.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
