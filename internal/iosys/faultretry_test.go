package iosys

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mem"
)

// seqHook returns a scripted error sequence from PageIO, one entry per
// call, then succeeds forever.
type seqHook struct {
	mu   sync.Mutex
	errs []error
}

func (h *seqHook) PageIO(op mem.IOOp, pid mem.PageID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.errs) == 0 {
		return nil
	}
	err := h.errs[0]
	h.errs = h.errs[1:]
	if err != nil {
		return fmt.Errorf("scripted %v on %v: %w", op, pid, err)
	}
	return nil
}

func (h *seqHook) PageOut(op mem.IOOp, pid mem.PageID, data []uint64) {}

func (h *seqHook) remaining() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.errs)
}

// repeatErrs builds a script of n copies of err.
func repeatErrs(err error, n int) []error {
	out := make([]error, n)
	for i := range out {
		out[i] = err
	}
	return out
}

// Each scripted case runs on two page layouts: the faulted page-in is the
// message's only page, or the second half of a message that straddles a
// page boundary. Either way the retry budget is per page transfer.
func TestInfiniteBufferRetriesInjectedErrors(t *testing.T) {
	permanent := errors.New("iosys test: permanent failure")
	cases := []struct {
		name    string
		script  []error
		wantPut bool // Put of the faulted message must succeed
	}{
		{"no-faults", nil, true},
		{"one-io-error", repeatErrs(mem.ErrIO, 1), true},
		{"io-error-burst", repeatErrs(mem.ErrIO, pageRetryLimit-1), true},
		{"busy-then-clean", repeatErrs(mem.ErrBusy, 2), true},
		{"mixed-io-and-busy", []error{mem.ErrIO, mem.ErrBusy, mem.ErrIO}, true},
		{"exhausts-retry-budget", repeatErrs(mem.ErrIO, pageRetryLimit), false},
		{"non-retryable", []error{permanent}, false},
	}
	layouts := []struct {
		name      string
		pageWords int
		prefix    []Message // stored before the fault script starts
	}{
		{"one-page", 8, nil},
		// 3-word pages: the prefix fills words 0-1 of page 0, so the
		// faulted message straddles word 2 of page 0 and word 0 of page 1.
		{"straddle", 3, []Message{{Seq: 1, Data: 10}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lay := range layouts {
				t.Run(lay.name, func(t *testing.T) {
					s := pageStore(t, lay.pageWords)
					b, err := NewInfiniteBuffer(s, 600)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range lay.prefix {
						if err := b.Put(m); err != nil {
							t.Fatal(err)
						}
					}
					hook := &seqHook{errs: tc.script}
					s.SetFaultHook(hook)
					faulted := Message{Seq: 2, Data: 42}
					err = b.Put(faulted)
					if tc.wantPut != (err == nil) {
						t.Fatalf("Put = %v, want success %v", err, tc.wantPut)
					}
					want := lay.prefix
					if tc.wantPut {
						want = append(want[:len(want):len(want)], faulted)
					}
					if b.Len() != len(want) {
						t.Fatalf("len = %d, want %d", b.Len(), len(want))
					}
					for _, w := range want {
						m, ok, err := b.Get()
						if err != nil || !ok || m != w {
							t.Fatalf("Get = %+v, %v, %v; want %+v", m, ok, err, w)
						}
					}
					if tc.wantPut && hook.remaining() != 0 {
						t.Errorf("script not fully consumed: %d errors left", hook.remaining())
					}
				})
			}
		})
	}
}

// With one word per page each half of a message is its own page transfer
// with its own budget, so pageRetryLimit-1 failures on each half still
// deliver; and Get pages an evicted half back in under the same budget.
func TestInfiniteBufferRetryBudgetPerPage(t *testing.T) {
	t.Run("put-budget-per-half", func(t *testing.T) {
		s := pageStore(t, 1)
		b, err := NewInfiniteBuffer(s, 602)
		if err != nil {
			t.Fatal(err)
		}
		script := append(repeatErrs(mem.ErrIO, pageRetryLimit-1), nil)
		script = append(script, repeatErrs(mem.ErrIO, pageRetryLimit-1)...)
		hook := &seqHook{errs: script}
		s.SetFaultHook(hook)
		if err := b.Put(Message{Seq: 3, Data: 30}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if hook.remaining() != 0 {
			t.Errorf("script not fully consumed: %d errors left", hook.remaining())
		}
		if m, ok, err := b.Get(); err != nil || !ok || m != (Message{Seq: 3, Data: 30}) {
			t.Fatalf("Get = %+v, %v, %v", m, ok, err)
		}
	})
	t.Run("get-pages-evicted-half-in", func(t *testing.T) {
		s := pageStore(t, 3)
		b, err := NewInfiniteBuffer(s, 603)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 2; seq++ {
			if err := b.Put(Message{Seq: seq, Data: seq * 10}); err != nil {
				t.Fatal(err)
			}
		}
		loc, err := s.Locate(mem.PageID{SegUID: 603, Index: 1})
		if err != nil || loc.Level != mem.LevelCore {
			t.Fatalf("Locate = %+v, %v", loc, err)
		}
		if _, _, err := s.EvictToBulk(loc.Frame); err != nil {
			t.Fatal(err)
		}
		hook := &seqHook{errs: []error{mem.ErrIO, mem.ErrBusy, mem.ErrIO}}
		s.SetFaultHook(hook)
		for seq := uint64(1); seq <= 2; seq++ {
			m, ok, err := b.Get()
			if err != nil || !ok || m != (Message{Seq: seq, Data: seq * 10}) {
				t.Fatalf("Get = %+v, %v, %v", m, ok, err)
			}
		}
		if hook.remaining() != 0 {
			t.Errorf("script not fully consumed: %d errors left", hook.remaining())
		}
	})
}

func TestInfiniteBufferTrimsUnderInjectedErrors(t *testing.T) {
	// The trim path must stay exact while page-ins keep flaking: every
	// fourth transfer fails once, yet residency stays bounded and FIFO
	// order holds across hundreds of page cycles.
	s := bufStore(t)
	var calls int
	var mu sync.Mutex
	s.SetFaultHook(hookFunc(func(op mem.IOOp, pid mem.PageID) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls%4 == 0 {
			return fmt.Errorf("every-4th: %w", mem.ErrIO)
		}
		return nil
	}))
	b, err := NewInfiniteBuffer(s, 601)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 800; i++ {
		if err := b.Put(Message{Seq: i, Data: i * 7}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		m, ok, err := b.Get()
		if err != nil || !ok || m.Seq != i || m.Data != i*7 {
			t.Fatalf("Get %d = %+v, %v, %v", i, m, ok, err)
		}
		if got := b.PagesUsed(); got > 1 {
			t.Fatalf("after message %d residency is %d pages, want <= 1", i, got)
		}
	}
	if got := b.PagesUsed(); got != 0 {
		t.Errorf("idle buffer holds %d pages, want 0", got)
	}
}

// hookFunc adapts a function to mem.FaultHook with a no-op PageOut.
type hookFunc func(op mem.IOOp, pid mem.PageID) error

func (f hookFunc) PageIO(op mem.IOOp, pid mem.PageID) error        { return f(op, pid) }
func (f hookFunc) PageOut(op mem.IOOp, pid mem.PageID, d []uint64) {}
