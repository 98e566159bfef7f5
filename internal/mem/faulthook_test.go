package mem

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// scriptedHook fails the first n PageIO calls with ErrIO and records
// every PageOut it observes.
type scriptedHook struct {
	mu       sync.Mutex
	failLeft int
	ioCalls  int
	outCalls int
	tearWord int // word index to corrupt on PageOut, -1 = none
}

func (h *scriptedHook) PageIO(op IOOp, pid PageID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ioCalls++
	if h.failLeft > 0 {
		h.failLeft--
		return fmt.Errorf("%w: scripted %v failure on %v", ErrIO, op, pid)
	}
	return nil
}

func (h *scriptedHook) PageOut(op IOOp, pid PageID, data []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.outCalls++
	if h.tearWord >= 0 && h.tearWord < len(data) {
		data[h.tearWord] ^= 0xffff
	}
}

func TestFaultHookAbortLeavesStateClean(t *testing.T) {
	s := newStore(t, smallConfig())
	if err := s.CreateSegment(1, 64); err != nil {
		t.Fatal(err)
	}
	hook := &scriptedHook{failLeft: 2, tearWord: -1}
	s.SetFaultHook(hook)
	pid := PageID{SegUID: 1, Index: 0}

	// The first two attempts fail before any state mutates; the page must
	// still be unmaterialized, so the third attempt zero-fills cleanly.
	for i := 0; i < 2; i++ {
		if _, _, err := s.PageIn(pid); !errors.Is(err, ErrIO) {
			t.Fatalf("attempt %d: err = %v, want ErrIO", i, err)
		}
		if loc, err := s.Locate(pid); err != nil || loc.Level != LevelNone {
			t.Fatalf("after aborted transfer: loc = %+v, err = %v", loc, err)
		}
	}
	f, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatalf("post-retry PageIn: %v", err)
	}
	if v, err := s.ReadWord(f, 0); err != nil || v != 0 {
		t.Errorf("page not zero-filled after recovery: %d, %v", v, err)
	}
	if hook.ioCalls != 3 {
		t.Errorf("hook consulted %d times, want 3", hook.ioCalls)
	}
}

func TestFaultHookTornWriteVisibleAfterRoundTrip(t *testing.T) {
	s := newStore(t, smallConfig())
	if err := s.CreateSegment(1, 64); err != nil {
		t.Fatal(err)
	}
	pid := PageID{SegUID: 1, Index: 0}
	f, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(f, 1, 0xabcd); err != nil {
		t.Fatal(err)
	}
	hook := &scriptedHook{tearWord: 1}
	s.SetFaultHook(hook)
	if _, _, err := s.EvictToBulk(f); err != nil {
		t.Fatalf("EvictToBulk: %v", err)
	}
	if hook.outCalls != 1 {
		t.Fatalf("PageOut observed %d evictions, want 1", hook.outCalls)
	}
	s.SetFaultHook(nil) // the tear happened on the way out; read back clean
	f, _, err = s.PageIn(pid)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadWord(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xabcd^0xffff {
		t.Errorf("read back %#x, want the torn value %#x", v, 0xabcd^0xffff)
	}
}

func TestFaultHookRemovable(t *testing.T) {
	s := newStore(t, smallConfig())
	if err := s.CreateSegment(1, 64); err != nil {
		t.Fatal(err)
	}
	hook := &scriptedHook{failLeft: 1 << 30, tearWord: -1}
	s.SetFaultHook(hook)
	if _, _, err := s.PageIn(PageID{SegUID: 1, Index: 0}); !errors.Is(err, ErrIO) {
		t.Fatalf("hooked PageIn: %v, want ErrIO", err)
	}
	s.SetFaultHook(nil)
	if _, _, err := s.PageIn(PageID{SegUID: 1, Index: 0}); err != nil {
		t.Fatalf("unhooked PageIn still failing: %v", err)
	}
}

func TestErrIOIsDistinctFromErrBusy(t *testing.T) {
	if errors.Is(ErrIO, ErrBusy) || errors.Is(ErrBusy, ErrIO) {
		t.Error("ErrIO and ErrBusy must be distinct sentinels")
	}
}
