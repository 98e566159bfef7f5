package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// evictableRef is the replacement-candidate rule as page control spelled it
// before AppendEvictable: filter a full Frames() snapshot.
func evictableRef(s *Store) []Frame {
	var out []Frame
	for _, f := range s.Frames() {
		if !f.Free && !f.Wired {
			out = append(out, f)
		}
	}
	return out
}

// lowestBulkBlockRef is the bulk-victim rule as page control spelled it
// before LowestBulkBlock: scan a full Blocks() snapshot.
func lowestBulkBlockRef(s *Store) (BlockID, bool) {
	var best Block
	found := false
	for _, bl := range s.Blocks() {
		if bl.Free {
			continue
		}
		if !found || bl.PID.SegUID < best.PID.SegUID ||
			(bl.PID.SegUID == best.PID.SegUID && bl.PID.Index < best.PID.Index) {
			best, found = bl, true
		}
	}
	return best.ID, found
}

// scanConfig is a hierarchy with 16 frames and 16 bulk blocks.
func scanConfig() Config {
	c := DefaultConfig()
	c.PageWords = 4
	c.CoreFrames = 16
	c.BulkBlocks = 16
	return c
}

// pushToBulk pages pid in and evicts it straight to the bulk store.
func pushToBulk(t *testing.T, s *Store, pid PageID) {
	t.Helper()
	f, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatalf("PageIn %v: %v", pid, err)
	}
	if _, _, err := s.EvictToBulk(f); err != nil {
		t.Fatalf("EvictToBulk %v: %v", pid, err)
	}
}

// randomOccupancy fills a store from seed: pages of several segments
// scattered over core, bulk and disk, up to three frames wired, and some
// pages discarded again so free frames and blocks sit between occupied ones.
func randomOccupancy(t *testing.T, seed int64) *Store {
	t.Helper()
	s := newStore(t, scanConfig())
	rng := rand.New(rand.NewSource(seed))
	uids := []uint64{7, 3, 0x40, 12}
	for _, uid := range uids {
		if err := s.CreateSegment(uid, 64*4); err != nil {
			t.Fatal(err)
		}
	}
	wired := 0
	for i := 0; i < 300; i++ {
		if s.FreeFrameCount() == 0 {
			cands := evictableRef(s)
			f := cands[rng.Intn(len(cands))].ID
			if _, _, err := s.EvictToBulk(f); err != nil {
				if _, err := s.EvictToDisk(f); err != nil {
					t.Fatalf("making room: %v", err)
				}
			}
		}
		pid := PageID{SegUID: uids[rng.Intn(len(uids))], Index: rng.Intn(64)}
		f, _, err := s.PageIn(pid)
		if err != nil {
			t.Fatalf("PageIn %v: %v", pid, err)
		}
		if info, _ := s.FrameInfo(f); info.Wired {
			continue
		}
		switch rng.Intn(8) {
		case 0, 1:
			_, _, _ = s.EvictToBulk(f) // ErrNoFreeBlock leaves it in core
		case 2:
			var occupied []BlockID
			for _, bl := range s.Blocks() {
				if !bl.Free {
					occupied = append(occupied, bl.ID)
				}
			}
			if len(occupied) > 0 {
				if _, err := s.BulkToDisk(occupied[rng.Intn(len(occupied))]); err != nil {
					t.Fatalf("BulkToDisk: %v", err)
				}
			}
		case 3:
			if wired < 3 {
				if err := s.Wire(f, true); err != nil {
					t.Fatal(err)
				}
				wired++
			}
		case 4:
			if err := s.Discard(pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestAppendEvictableMatchesFramesFilter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := randomOccupancy(t, seed)
		want := evictableRef(s)
		if got := s.AppendEvictable(nil); !slices.Equal(got, want) {
			t.Fatalf("seed %d: AppendEvictable = %v, want %v", seed, got, want)
		}
		// Appending keeps dst's prefix and reuses its backing array.
		prefix := Frame{ID: -1}
		buf := make([]Frame, 1, 1+s.Config().CoreFrames)
		buf[0] = prefix
		got := s.AppendEvictable(buf)
		if got[0] != prefix || !slices.Equal(got[1:], want) || &got[0] != &buf[0] {
			t.Fatalf("seed %d: append onto a non-empty buffer: %v", seed, got)
		}
	}
}

func TestLowestBulkBlockMatchesBlocksScan(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Store
	}{
		{"empty", func(t *testing.T) *Store { return newStore(t, scanConfig()) }},
		{"single block", func(t *testing.T) *Store {
			s := newStore(t, scanConfig())
			if err := s.CreateSegment(9, 64*4); err != nil {
				t.Fatal(err)
			}
			pushToBulk(t, s, PageID{SegUID: 9, Index: 5})
			return s
		}},
		{"full", func(t *testing.T) *Store {
			s := newStore(t, scanConfig())
			for _, uid := range []uint64{5, 2} {
				if err := s.CreateSegment(uid, 64*4); err != nil {
					t.Fatal(err)
				}
			}
			// Interleave two segments with falling indexes, so the lowest
			// page is the last one pushed.
			for i := 0; i < s.Config().BulkBlocks; i++ {
				pushToBulk(t, s, PageID{SegUID: []uint64{5, 2}[i%2], Index: 20 - i})
			}
			if s.FreeBlockCount() != 0 {
				t.Fatalf("bulk store not full: %d free", s.FreeBlockCount())
			}
			return s
		}},
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		cases = append(cases, struct {
			name  string
			build func(t *testing.T) *Store
		}{fmt.Sprintf("random seed %d", seed), func(t *testing.T) *Store { return randomOccupancy(t, seed) }})
	}
	for _, c := range cases {
		s := c.build(t)
		wantID, wantOK := lowestBulkBlockRef(s)
		gotID, gotOK := s.LowestBulkBlock()
		if gotID != wantID || gotOK != wantOK {
			t.Errorf("%s: LowestBulkBlock = (%d, %v), want (%d, %v)", c.name, gotID, gotOK, wantID, wantOK)
		}
	}
}
