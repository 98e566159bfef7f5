package pagectl

import (
	"testing"

	"repro/internal/mem"
)

// TestVictimSelectionAllocatesNothing pins down that page control picks
// victims by scanning the frame and block tables in place: once the
// candidate buffer is warm, an eviction step and a bulk-victim pick
// allocate nothing. A regression to snapshot copies of the tables would
// cost at least one allocation per call.
func TestVictimSelectionAllocatesNothing(t *testing.T) {
	store := tinyMem(t, 16, 8)
	if err := store.CreateSegment(1, 64*4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		f, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		if i < 8 {
			if _, _, err := store.EvictToBulk(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	seq := NewSequentialPager(store, NewClockPolicy(store))
	if _, err := seq.chooseVictim(); err != nil { // warm-up sizes the buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := seq.chooseVictim(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("sequential eviction step allocates %.1f objects, want 0", n)
	}

	// The parallel pager's core-freeing process refills its own buffer the
	// same way.
	clock := NewClockPolicy(store)
	cands := store.AppendEvictable(nil)
	if n := testing.AllocsPerRun(100, func() {
		cands = store.AppendEvictable(cands[:0])
		if _, err := clock.ChooseVictim(cands); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("candidates plus ClockPolicy.ChooseVictim allocate %.1f objects, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		if _, err := pickBulkVictim(store); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pickBulkVictim allocates %.1f objects, want 0", n)
	}
}
