package pagectl

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// recordingPolicy wraps a VictimPolicy. At every call it checks that the
// candidates the pager offers are exactly the occupied, unwired frames of a
// fresh Frames() snapshot (the definition page control used before it
// scanned the store in place), then records the victim the inner policy
// picks.
type recordingPolicy struct {
	t       *testing.T
	store   *mem.Store
	inner   VictimPolicy
	victims []mem.FrameID
}

func (r *recordingPolicy) ChooseVictim(candidates []mem.Frame) (mem.FrameID, error) {
	var want []mem.Frame
	for _, f := range r.store.Frames() {
		if !f.Free && !f.Wired {
			want = append(want, f)
		}
	}
	if !slices.Equal(candidates, want) {
		r.t.Errorf("call %d: candidates %v, want %v", len(r.victims), candidates, want)
	}
	v, err := r.inner.ChooseVictim(candidates)
	if err == nil {
		r.victims = append(r.victims, v)
	}
	return v, err
}

// overcommittedTrace runs three faulting processes over private segments
// of 12 pages each on 8 core frames (one wired) and 8 bulk blocks, with a
// seeded random reference string. Each resolved fault is followed by a word
// read, so the clock policy sees live usage bits. It returns the victims in
// order and the final virtual time.
func overcommittedTrace(t *testing.T, parallel bool, seed int64) ([]mem.FrameID, int64) {
	t.Helper()
	store := tinyMem(t, 8, 8)
	const kernelSeg, procs, pages, touches = 100, 3, 12, 120
	if _, err := store.CreateSegment(kernelSeg, 4); err != nil {
		t.Fatal(err)
	}
	kf, _, err := store.PageIn(mem.PageID{SegUID: kernelSeg})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Wire(kf, true); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < procs; p++ {
		if _, err := store.CreateSegment(uint64(p+1), pages*4); err != nil {
			t.Fatal(err)
		}
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu-a", false)
	rec := &recordingPolicy{t: t, store: store, inner: NewClockPolicy(store)}
	var pager Pager
	if parallel {
		pp, err := NewParallelPager(store, sch,
			ParallelConfig{CoreLowWater: 2, CoreTarget: 3, BulkLowWater: 2, BulkTarget: 3}, rec)
		if err != nil {
			t.Fatal(err)
		}
		pager = pp
	} else {
		pager = NewSequentialPager(store, rec)
	}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < procs; p++ {
		uid := uint64(p + 1)
		refs := make([]int, touches)
		for i := range refs {
			refs[i] = rng.Intn(pages)
		}
		sch.Spawn(fmt.Sprintf("faulter-%d", p), func(pc *sched.ProcCtx) {
			for _, pg := range refs {
				pid := mem.PageID{SegUID: uid, Index: pg}
				if err := pager.Handle(pc, fault(uid, pg)); err != nil {
					t.Errorf("fault on %v: %v", pid, err)
					return
				}
				if loc, err := store.Locate(pid); err == nil && loc.Level == mem.LevelCore {
					if _, err := store.ReadWord(loc.Frame, 0); err != nil {
						t.Errorf("read %v: %v", pid, err)
					}
				}
				pc.Consume(1)
			}
		})
	}
	sch.Run(0)
	return rec.victims, clk.Now()
}

// Golden victim sequences of overcommittedTrace(seed 1), recorded when
// page control still copied the frame and block tables to pick victims.
// Victim selection must stay exactly the same.
var goldenVictims = map[bool]struct {
	end     int64
	victims string
}{
	false: {end: 341831, victims: "" +
		"0 1 2 3 5 6 7 0 1 2 5 6 7 1 3 5 7 0 2 3 6 7 1 5 6 0 1 2 3 6 7 6 " +
		"0 1 2 3 2 1 2 5 3 7 0 2 3 6 0 1 3 5 7 0 2 3 7 1 5 6 0 1 2 3 6 7 " +
		"2 5 6 0 1 2 3 6 7 2 5 6 0 1 5 7 0 2 3 5 0 1 5 7 1 2 6 7 0 3 1 5 " +
		"5 6 7 2 2 1 3 6 0 2 5 7 6 3 5 1 2 6 7 3 5 0 1 2 6 7 3 5 0 6 7 1 " +
		"2 3 5 0 1 3 6 7 0 2 3 5 7 1 2 6 7 0 2 3 0 1 3 5 1 2 0 3 5 6 7 1 " +
		"2 3 6 0 1 5 1 2 3 6 7 0 1 5 6 0 2 3 7 0 1 3 5 6 6 7 0 1 2 3 7 1 " +
		"3 5 0 1 2 5 6 7 6 0 1 2 3 6 7 1 3 5 7 0 2 7 1 3 5 6 0 2 7 1 3 5 " +
		"6 7 0 2 3 6 0 1 3 5 7 0 2 6 1 2 3 5 7 0 1 3 6 1 2 5 6 0 2 3 6 7 " +
		"1 2 5 6 0 1 3 7 0 2 5 6 1 3 5 7 1 2 5 6 3 7 0 1 2 3 5 6 0 2 5 7 " +
		"0 3 5 0 1 5 7 1 2 3 6 7 5 6 0 3 7 0 1 2 5 7 1 3 5 6 0 1 2 5 0 2 " +
		"3 6 7 0 1 3 5 7 1 2 5 0 1 7 1 2 3 5 6 0 1 3 7 1 7 0 2 6 7 1 3 5 " +
		"7 0 2 3 7 2 5 6"},
	true: {end: 382488, victims: "" +
		"0 1 2 3 5 6 7 0 1 2 1 6 7 5 5 3 0 1 2 3 6 7 5 7 7 1 1 0 7 0 2 0 " +
		"6 3 1 7 0 5 0 2 6 5 1 2 3 5 7 0 2 5 5 6 0 6 5 6 7 3 2 3 1 5 6 7 " +
		"6 2 5 6 5 0 1 3 5 2 6 0 0 2 3 7 7 1 2 0 6 7 0 1 5 0 7 2 3 5 3 7 " +
		"6 3 6 1 2 5 7 1 1 3 0 5 2 7 5 3 6 2 7 1 0 3 6 7 6 5 6 1 3 3 6 7 " +
		"2 2 5 6 1 0 5 1 7 3 5 6 0 3 5 7 6 2 5 6 0 1 5 7 2 2 3 6 1 1 3 5 " +
		"2 0 1 2 1 0 1 6 5 2 3 5 7 0 1 3 6 6 7 1 7 6 7 0 5 2 5 5 2 7 0 1 " +
		"0 3 6 0 2 5 7 0 1 3 3 5 6 0 0 3 5 2 5 6 3 1 2 3 2 7 1 2 1 5 0 1 " +
		"6 7 0 2 5 5 6 0 3 3 6 7 2 1 2 5 2 1 2 3 2 0 1 2 1 6 7 1 5 7 0 2 " +
		"5 5 6 0 1 3 7 0 2 5 1 7 1 2 0 6 0 1 3 5 3 7 2 3 0 1 3 6 6 7 1 5 " +
		"5 7 0 6 3 5 6 2 2 5 7 5 3 5 6 5 0 2 5 1 3 6 7 1 1 2 5 6 0 6 3 6 " +
		"7 5 0 1 0 3 6 7 6 2 6 0 3 3 5 6 1 1 2 5 0 7 0 2 0 7 0 0 7 2 3 5 " +
		"3 7 3 6 0 1 2 5 7 7 0 2 0 7 0 1 6 3 0 6 1 7 2 5 3 0 1 2 7 1 3 0 " +
		"5 0 6 1 5 7 2 3 0 5 2 6 7 0 3 1 2 6 7 0 1 2 5 6 7 0 1 3 2 5 6"},
}

func TestVictimSequenceMatchesGolden(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		victims, end := overcommittedTrace(t, parallel, 1)
		got := strings.Trim(fmt.Sprint(victims), "[]")
		want := goldenVictims[parallel]
		if got != want.victims || end != want.end {
			t.Errorf("parallel=%v: %d victims ending at vcycle %d, want golden (end %d)\ngot victims: %q",
				parallel, len(victims), end, want.end, got)
		}
	}
}
