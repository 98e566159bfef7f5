package trace

import (
	"fmt"
	"sync"
	"testing"
)

// tagged builds an event whose fields check one another, so a snapshot
// that caught a slot half-written would show a mismatch.
func tagged(writer, i int) Event {
	arg := uint64(writer)<<32 | uint64(i)
	return Event{Stage: StageGate, Name: fmt.Sprintf("w%d", writer), Subject: ^arg, Arg: arg, Cost: int64(i)}
}

func checkTagged(ev Event) error {
	if ev.Subject != ^ev.Arg || ev.Cost != int64(uint32(ev.Arg)) || ev.Name != fmt.Sprintf("w%d", ev.Arg>>32) {
		return fmt.Errorf("torn event %+v", ev)
	}
	return nil
}

func TestNewRingRoundsCapacity(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024}} {
		if got := NewRing(c.ask).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

func TestNilAndDisabledRingDrop(t *testing.T) {
	var nilRing *Ring
	nilRing.Record(Event{})
	nilRing.SetEnabled(true)
	if nilRing.Enabled() || nilRing.Written() != 0 || nilRing.Cap() != 0 || nilRing.Snapshot() != nil {
		t.Error("nil ring is not an empty, disabled ring")
	}
	r := NewRing(16)
	if r.Snapshot() != nil {
		t.Error("fresh ring snapshot is not empty")
	}
	r.SetEnabled(false)
	r.Record(Event{Name: "dropped"})
	if r.Written() != 0 || r.Snapshot() != nil {
		t.Error("disabled ring recorded an event")
	}
	r.SetEnabled(true)
	r.Record(Event{Name: "kept"})
	if s := r.Snapshot(); len(s) != 1 || s[0].Name != "kept" || s[0].Seq != 0 {
		t.Errorf("snapshot after re-enable = %+v", s)
	}
}

// Concurrent writers each claim a distinct slot: with room for every
// event, the ring ends holding all of them, sequence numbers dense from 0.
func TestRingSlotClaimConcurrent(t *testing.T) {
	const writers, each = 8, 500
	r := NewRing(writers * each)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(tagged(w, i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Written(); got != writers*each {
		t.Fatalf("Written = %d, want %d", got, writers*each)
	}
	snap := r.Snapshot()
	if len(snap) != writers*each {
		t.Fatalf("snapshot holds %d events, want %d", len(snap), writers*each)
	}
	seen := map[uint64]bool{}
	for i, ev := range snap {
		if ev.Seq != uint64(i) {
			t.Fatalf("snapshot[%d].Seq = %d: claims not dense", i, ev.Seq)
		}
		if err := checkTagged(ev); err != nil {
			t.Fatal(err)
		}
		if seen[ev.Arg] {
			t.Fatalf("event %#x recorded twice", ev.Arg)
		}
		seen[ev.Arg] = true
	}
}

// Once the ring wraps it holds exactly the newest Cap events, oldest first.
func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := NewRing(16)
	const total = 16*3 + 5
	for i := 0; i < total; i++ {
		r.Record(tagged(0, i))
	}
	snap := r.Snapshot()
	if len(snap) != r.Cap() {
		t.Fatalf("snapshot holds %d events, want %d", len(snap), r.Cap())
	}
	for i, ev := range snap {
		want := uint64(total - r.Cap() + i)
		if ev.Seq != want || ev.Arg != want {
			t.Fatalf("snapshot[%d] = seq %d arg %d, want %d", i, ev.Seq, ev.Arg, want)
		}
	}
	if r.Written() != total {
		t.Errorf("Written = %d, want %d (overwritten events still count)", r.Written(), total)
	}
}

// Snapshots taken while writers lap the ring are best-effort cuts, but
// every one is ordered, duplicate-free, within capacity, and made of
// whole events.
func TestRingConcurrentSnapshots(t *testing.T) {
	r := NewRing(64)
	const writers, each, readers = 4, 2000, 2
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(tagged(w, i))
			}
		}(w)
	}
	var rg sync.WaitGroup
	for k := 0; k < readers; k++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				snap := r.Snapshot()
				if len(snap) > r.Cap() {
					errs <- fmt.Errorf("snapshot of %d events exceeds capacity %d", len(snap), r.Cap())
					return
				}
				for i, ev := range snap {
					if i > 0 && snap[i-1].Seq >= ev.Seq {
						errs <- fmt.Errorf("snapshot out of order: seq %d then %d", snap[i-1].Seq, ev.Seq)
						return
					}
					if err := checkTagged(ev); err != nil {
						errs <- err
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r.Written() != writers*each {
		t.Errorf("Written = %d, want %d", r.Written(), writers*each)
	}
}
