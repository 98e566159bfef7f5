package mem

import (
	"testing"
)

// Object reuse: a frame released by Discard, DeleteSegment or a shrinking
// SetLength keeps its page memory for the next zero-fill, which must clear
// it. These tests check the clear, and that the recycling never aliases a
// page that left core by eviction.

func reuseConfig() Config {
	c := DefaultConfig()
	c.PageWords = 8
	c.CoreFrames = 8
	c.BulkBlocks = 8
	return c
}

// pattern returns a page of non-zero words tagged by tag.
func pattern(words int, tag uint64) []uint64 {
	out := make([]uint64, words)
	for i := range out {
		out[i] = tag<<32 | uint64(i) + 1
	}
	return out
}

// writePage materializes pid (if needed) with the given words and returns
// the frame holding it.
func writePage(t *testing.T, s *Store, pid PageID, words []uint64) FrameID {
	t.Helper()
	if err := s.WriteWords(pid, 0, words, (pid.Index+1)*s.Config().PageWords); err != nil {
		t.Fatalf("WriteWords %v: %v", pid, err)
	}
	loc, err := s.Locate(pid)
	if err != nil || loc.Level != LevelCore {
		t.Fatalf("Locate %v = %+v, %v", pid, loc, err)
	}
	return loc.Frame
}

// readPage reads every word of pid.
func readPage(t *testing.T, s *Store, pid PageID) []uint64 {
	t.Helper()
	out := make([]uint64, s.Config().PageWords)
	if err := s.ReadWords(pid, 0, out); err != nil {
		t.Fatalf("ReadWords %v: %v", pid, err)
	}
	return out
}

func TestReleasedFrameReusedZeroFilled(t *testing.T) {
	const segA, segB = 1, 2
	cases := []struct {
		name    string
		release func(s *Store) error
	}{
		{"discard", func(s *Store) error { return s.Discard(PageID{SegUID: segA, Index: 1}) }},
		{"delete-segment", func(s *Store) error { return s.DeleteSegment(segA) }},
		{"shrink", func(s *Store) error { return s.SetLength(segA, 8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := reuseConfig()
			s := newStore(t, cfg)
			for _, uid := range []uint64{segA, segB} {
				if _, err := s.CreateSegment(uid, 0); err != nil {
					t.Fatal(err)
				}
			}
			writePage(t, s, PageID{SegUID: segA, Index: 0}, pattern(cfg.PageWords, 0xa0))
			victim := writePage(t, s, PageID{SegUID: segA, Index: 1}, pattern(cfg.PageWords, 0xa1))
			if err := tc.release(s); err != nil {
				t.Fatal(err)
			}
			// Materialize pages of B until the released frame comes back;
			// the pool is small, so it must within CoreFrames pages.
			reused := false
			for i := 0; i < cfg.CoreFrames && !reused; i++ {
				pid := PageID{SegUID: segB, Index: i}
				f, err := s.MaterializeZero(pid)
				if err != nil {
					t.Fatalf("MaterializeZero %v: %v", pid, err)
				}
				reused = f == victim
				for off, w := range readPage(t, s, pid) {
					if w != 0 {
						t.Fatalf("page %v in frame %d: word %d = %#x, want 0 (last owner's data)", pid, f, off, w)
					}
				}
			}
			if !reused {
				t.Fatalf("released frame %d never reused", victim)
			}
		})
	}
}

func TestRecycledFrameDoesNotAliasEvictedPage(t *testing.T) {
	evictions := []struct {
		name  string
		evict func(s *Store, f FrameID) error
	}{
		{"to-disk", func(s *Store, f FrameID) error { _, err := s.EvictToDisk(f); return err }},
		{"to-bulk", func(s *Store, f FrameID) error { _, _, err := s.EvictToBulk(f); return err }},
	}
	for _, ev := range evictions {
		t.Run(ev.name, func(t *testing.T) {
			cfg := reuseConfig()
			s := newStore(t, cfg) // default MemStore backing
			const kept, churn = 1, 2
			for _, uid := range []uint64{kept, churn} {
				if _, err := s.CreateSegment(uid, 0); err != nil {
					t.Fatal(err)
				}
			}
			keptPID := PageID{SegUID: kept, Index: 0}
			want := pattern(cfg.PageWords, 0x55)
			f := writePage(t, s, keptPID, want)
			if err := ev.evict(s, f); err != nil {
				t.Fatal(err)
			}
			// Churn every frame several times over: write junk, release,
			// re-materialize. A frame that still shared the evicted page's
			// memory would overwrite or zero it here.
			for round := 0; round < 4; round++ {
				for i := 0; i < cfg.CoreFrames-1; i++ {
					writePage(t, s, PageID{SegUID: churn, Index: i}, pattern(cfg.PageWords, uint64(0xc0+round)))
				}
				for i := 0; i < cfg.CoreFrames-1; i++ {
					if err := s.Discard(PageID{SegUID: churn, Index: i}); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := readPage(t, s, keptPID) // pages the evicted copy back in
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("evicted page word %d = %#x after churn, want %#x", i, got[i], want[i])
				}
			}
		})
	}
}

func TestWordTransferBoundsAndGrowth(t *testing.T) {
	cfg := reuseConfig()
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 0); err != nil {
		t.Fatal(err)
	}
	pid := PageID{SegUID: 1, Index: 2}
	if err := s.WriteWords(pid, cfg.PageWords-1, []uint64{1, 2}, 0); err == nil {
		t.Error("write past the page end should fail")
	}
	if err := s.ReadWords(pid, -1, make([]uint64, 1)); err == nil {
		t.Error("read at a negative offset should fail")
	}
	if err := s.ReadWords(PageID{SegUID: 9}, 0, make([]uint64, 1)); err == nil {
		t.Error("transfer on a missing segment should fail")
	}
	if err := s.WriteWords(pid, 3, []uint64{7, 8}, 2*cfg.PageWords+5); err != nil {
		t.Fatal(err)
	}
	sp, _ := s.Segment(1)
	if got := sp.Length(); got != 2*cfg.PageWords+5 {
		t.Errorf("length = %d, want %d", got, 2*cfg.PageWords+5)
	}
	// A smaller minLength never shrinks the segment.
	if err := s.WriteWords(pid, 0, []uint64{1}, 1); err != nil {
		t.Fatal(err)
	}
	if got := sp.Length(); got != 2*cfg.PageWords+5 {
		t.Errorf("length after small write = %d, want unchanged", got)
	}
	loc, _ := s.Locate(pid)
	fi, _ := s.FrameInfo(loc.Frame)
	if !fi.Used || !fi.Modified {
		t.Errorf("after WriteWords frame = %+v, want used and modified", fi)
	}
	got := make([]uint64, 3)
	if err := s.ReadWords(pid, 2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 7 || got[2] != 8 {
		t.Errorf("ReadWords = %v, want [0 7 8]", got)
	}
}
