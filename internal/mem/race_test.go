package mem

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentStoreHammer drives PageIn/Discard/SetLength/word access and
// evictions from many goroutines at once. The store lock must keep it
// clean under -race (no concurrent map writes in the page tables or free
// lists), and the frame pool must be conserved afterwards.
//
// Frame-addressed word I/O (ReadWord/WriteWord) runs only on each worker's
// private segment (a frame observed through a private page table cannot be
// raced away by another worker). The page-addressed word transfers
// (WriteWords/ReadWords) run on the shared segment, beside evictions and
// other workers' discards, and on a churn segment that a dedicated
// goroutine keeps deleting and re-creating.
func TestConcurrentStoreHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageWords = 8
	cfg.CoreFrames = 128
	cfg.BulkBlocks = 128
	s := newStore(t, cfg)

	const (
		workers   = 8
		iters     = 400
		sharedUID = uint64(99)
		churnUID  = uint64(98)
	)
	for _, uid := range []uint64{sharedUID, churnUID} {
		if err := s.CreateSegment(uid, 1024); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		if err := s.CreateSegment(uint64(w+1), 1024); err != nil {
			t.Fatal(err)
		}
	}

	tolerable := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrNoFreeFrame) || errors.Is(err, ErrNoFreeBlock) ||
			errors.Is(err, ErrBusy)
	}

	// A word transfer also tolerates losing its segment to the churner.
	transferOK := func(err error) bool {
		return tolerable(err) || strings.Contains(err.Error(), "does not exist")
	}
	// roundTrip writes v into the worker's own word of pid and reads it
	// back. Other goroutines may discard or evict the page in between, so
	// the read sees v or, after a discard, zero — never another value.
	roundTrip := func(pid PageID, slot int, v uint64) error {
		if err := s.WriteWords(pid, slot, []uint64{v}, 0); err != nil {
			if transferOK(err) {
				return nil
			}
			return err
		}
		var got [1]uint64
		if err := s.ReadWords(pid, slot, got[:]); err != nil {
			if transferOK(err) {
				return nil
			}
			return err
		}
		if got[0] != v && got[0] != 0 {
			return fmt.Errorf("ReadWords %v word %d = %#x, want %#x or 0", pid, slot, got[0], v)
		}
		return nil
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers+3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			uid := uint64(w + 1)
			for i := 0; i < iters; i++ {
				own := PageID{SegUID: uid, Index: i % 16}
				f, _, err := s.PageIn(own)
				if err == nil {
					// The evictor below may race the frame away between the
					// page-in and the write; the failed write is tolerated,
					// like a faulting reference would be retried.
					_ = s.WriteWord(f, i%cfg.PageWords, uint64(i))
				} else if !tolerable(err) {
					errCh <- err
					return
				}
				shared := PageID{SegUID: sharedUID, Index: (w*7 + i) % 32}
				switch i % 5 {
				case 0:
					if _, _, err := s.PageIn(shared); !tolerable(err) {
						errCh <- err
						return
					}
				case 1:
					if err := s.Discard(shared); !tolerable(err) {
						errCh <- err
						return
					}
				case 2:
					if err := s.SetLength(sharedUID, 1024-(i%64)); !tolerable(err) {
						errCh <- err
						return
					}
				case 3:
					if err := s.Discard(own); !tolerable(err) {
						errCh <- err
						return
					}
				default:
					if _, err := s.Locate(shared); err != nil {
						errCh <- err
						return
					}
				}
				v := uint64(w)<<32 | uint64(i) + 1
				if err := roundTrip(shared, w%cfg.PageWords, v); err != nil {
					errCh <- err
					return
				}
				churn := PageID{SegUID: churnUID, Index: (w + i) % 8}
				if err := roundTrip(churn, w%cfg.PageWords, v); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// The churner deletes and re-creates the churn segment under the
	// workers' transfers, releasing its frames for recycling.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 200; round++ {
			if err := s.DeleteSegment(churnUID); err != nil {
				errCh <- err
				return
			}
			if err := s.CreateSegment(churnUID, 0); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// A dedicated evictor imitates the parallel pager: scan frames, push
	// them down the hierarchy, tolerate every race outcome. Odd rounds
	// pick victims the way page control does, scanning the tables in
	// place with AppendEvictable and LowestBulkBlock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cands []Frame
		for round := 0; round < 200; round++ {
			if round%2 == 1 {
				cands = s.AppendEvictable(cands[:0])
				for i, fr := range cands {
					// Any race outcome is fine.
					if i%2 == 0 {
						_, _, _ = s.EvictToBulk(fr.ID)
					} else {
						_, _ = s.EvictToDisk(fr.ID)
					}
				}
				for i := 0; i < 16; i++ {
					b, ok := s.LowestBulkBlock()
					if !ok {
						break
					}
					_, _ = s.BulkToDisk(b) // the block may have raced away
				}
				continue
			}
			for _, fr := range s.Frames() {
				if fr.Free || fr.Wired {
					continue
				}
				if _, _, err := s.EvictToBulk(fr.ID); !tolerable(err) {
					// Eviction may also find the frame freed between the
					// snapshot and the claim — that surfaces as a plain
					// "frame is free" error, which is fine here.
					if _, infoErr := s.FrameInfo(fr.ID); infoErr != nil {
						errCh <- err
						return
					}
				}
			}
			for _, bl := range s.Blocks() {
				if bl.Free {
					continue
				}
				if _, err := s.BulkToDisk(bl.ID); !tolerable(err) {
					if round%2 == 0 {
						continue // "block is free": lost the race after snapshot
					}
				}
			}
		}
	}()

	// A scanner runs the in-place victim scans beside all of the above;
	// each scan holds the store lock, so the result is in frame-ID order
	// with no duplicates and nothing free or wired.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cands []Frame
		for round := 0; round < 400; round++ {
			cands = s.AppendEvictable(cands[:0])
			for i, fr := range cands {
				if fr.Free || fr.Wired || (i > 0 && fr.ID <= cands[i-1].ID) {
					errCh <- fmt.Errorf("AppendEvictable: bad candidate %d of %v", i, cands)
					return
				}
			}
			if b, ok := s.LowestBulkBlock(); ok && (b < 0 || int(b) >= cfg.BulkBlocks) {
				errCh <- fmt.Errorf("LowestBulkBlock: block %d out of range", b)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent op failed: %v", err)
	}

	// Conservation after quiescence: every non-free frame holds a distinct
	// page whose table points back at it, and free + occupied == total.
	occupied := 0
	seen := map[PageID]bool{}
	for _, fr := range s.Frames() {
		if fr.Free {
			continue
		}
		occupied++
		if seen[fr.PID] {
			t.Fatalf("page %v occupies two frames", fr.PID)
		}
		seen[fr.PID] = true
		loc, err := s.Locate(fr.PID)
		if err != nil || loc.Level != LevelCore || loc.Frame != fr.ID {
			t.Fatalf("frame %d holds %v but table says %+v (err %v)", fr.ID, fr.PID, loc, err)
		}
	}
	if occupied+s.FreeFrameCount() != cfg.CoreFrames {
		t.Fatalf("frame conservation violated: %d occupied + %d free != %d",
			occupied, s.FreeFrameCount(), cfg.CoreFrames)
	}
}
