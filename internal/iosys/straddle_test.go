package iosys

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// pageStore returns a store with pageWords-word pages and room for the
// burst phase below at one word per page (40 buffered messages = 80 pages).
func pageStore(t *testing.T, pageWords int) *mem.Store {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.PageWords = pageWords
	cfg.CoreFrames = 128
	cfg.BulkBlocks = 64
	s, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// With an odd page size a message can straddle two pages, and with one
// word per page every message does. FIFO order and the trim bound must
// hold at every page size. 240 messages end on a page boundary for each
// size below, so the idle buffer must hold nothing.
func TestInfiniteBufferPageStraddling(t *testing.T) {
	for _, pw := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("page-words-%d", pw), func(t *testing.T) {
			b, err := NewInfiniteBuffer(pageStore(t, pw), 700)
			if err != nil {
				t.Fatal(err)
			}
			var next, expect uint64
			get := func() {
				t.Helper()
				m, ok, err := b.Get()
				if err != nil || !ok || m.Seq != expect || m.Data != expect*11 {
					t.Fatalf("Get = %+v, %v, %v; want seq %d", m, ok, err, expect)
				}
				expect++
			}
			// Bursts: the unread words span at most ceil(2n/pw)+1 pages.
			for round := 0; round < 20; round++ {
				for i := 0; i < 7; i++ {
					if err := b.Put(Message{Seq: next, Data: next * 11}); err != nil {
						t.Fatalf("Put %d: %v", next, err)
					}
					next++
				}
				for i := 0; i < 5; i++ {
					get()
				}
				bound := (wordsPerMessage*b.Len()+pw-1)/pw + 1
				if got := b.PagesUsed(); got > bound {
					t.Fatalf("round %d: %d messages buffered in %d pages, want <= %d", round, b.Len(), got, bound)
				}
			}
			for b.Len() > 0 {
				get()
			}
			// Streaming: one message in, one out.
			for next < 240 {
				if err := b.Put(Message{Seq: next, Data: next * 11}); err != nil {
					t.Fatalf("Put %d: %v", next, err)
				}
				next++
				get()
				if got := b.PagesUsed(); got > 1 {
					t.Fatalf("after message %d the buffer spans %d pages, want <= 1", next-1, got)
				}
			}
			if got := b.PagesUsed(); got != 0 {
				t.Errorf("idle buffer holds %d pages, want 0", got)
			}
			if _, ok, _ := b.Get(); ok {
				t.Error("drained buffer returned a message")
			}
		})
	}
}

// After warm-up, a Put/Get/drain cycle that crosses a page boundary and
// re-materializes pages allocates nothing: the store recycles the page
// memory of the frames the drain discarded.
func TestInfiniteBufferSteadyStateAllocs(t *testing.T) {
	for _, pw := range []int{3, 8} {
		t.Run(fmt.Sprintf("page-words-%d", pw), func(t *testing.T) {
			b, err := NewInfiniteBuffer(pageStore(t, pw), 704)
			if err != nil {
				t.Fatal(err)
			}
			var seq uint64
			cycle := func() {
				// 5 messages = 10 words: more than one page at either size.
				for i := 0; i < 5; i++ {
					seq++
					if err := b.Put(Message{Seq: seq, Data: seq}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 5; i++ {
					if _, ok, err := b.Get(); err != nil || !ok {
						t.Fatalf("Get: %v, %v", ok, err)
					}
				}
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Errorf("steady-state cycle allocates %v times, want 0", allocs)
			}
		})
	}
}
