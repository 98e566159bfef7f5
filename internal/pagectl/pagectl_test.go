package pagectl

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

func tinyMem(t *testing.T, coreFrames, bulkBlocks int) *mem.Store {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.PageWords = 4
	cfg.CoreFrames = coreFrames
	cfg.BulkBlocks = bulkBlocks
	s, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fault(uid uint64, page int) *machine.PageFault {
	return &machine.PageFault{SegTag: uid, Page: page}
}

// touchPages runs a process that faults on the given pages in order via the
// pager, then reports per-page success.
func touchPages(t *testing.T, sch *sched.Scheduler, p Pager, uid uint64, pages []int) {
	t.Helper()
	sch.Spawn("toucher", func(pc *sched.ProcCtx) {
		for _, pg := range pages {
			if err := p.Handle(pc, fault(uid, pg)); err != nil {
				t.Errorf("fault on page %d: %v", pg, err)
				return
			}
		}
	})
	sch.Run(0)
	if blocked := sch.BlockedProcesses(); len(blocked) > 0 {
		for _, b := range blocked {
			if b.Name == "toucher" {
				t.Fatalf("toucher deadlocked: %s", b.BlockReason())
			}
		}
	}
}

func TestSequentialPagerBasicFault(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, nil)
	touchPages(t, sch, p, 1, []int{0, 1, 2})
	st := p.Stats()
	if st.Faults != 3 {
		t.Errorf("faults = %d, want 3", st.Faults)
	}
	if st.FaulterEvictions != 0 {
		t.Errorf("no evictions expected with free core: %+v", st)
	}
}

func TestSequentialPagerCascades(t *testing.T) {
	// Core of 2 frames, bulk of 2 blocks: touching 8 pages forces the full
	// core->bulk->disk cascade inside the faulting process.
	store := tinyMem(t, 2, 2)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, FIFOPolicy{})
	touchPages(t, sch, p, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	st := p.Stats()
	if st.Faults != 8 {
		t.Errorf("faults = %d, want 8", st.Faults)
	}
	if st.FaulterEvictions == 0 {
		t.Error("cascade should have forced evictions in the faulting process")
	}
	if store.Stats().BulkToDisk == 0 {
		t.Error("bulk->disk transfers expected once bulk filled")
	}
	if st.MaxCascade == 0 {
		t.Error("cascade depth should be recorded")
	}
}

func TestSequentialPagerRefetch(t *testing.T) {
	// Page evicted and refetched keeps its contents (via the store), and
	// the pager handles the fault rather than erroring.
	store := tinyMem(t, 2, 4)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, FIFOPolicy{})
	touchPages(t, sch, p, 1, []int{0, 1, 2, 0, 1, 2})
	if got := p.Stats().Faults; got != 6 {
		t.Errorf("faults = %d, want 6", got)
	}
	if store.Stats().BulkToCore == 0 {
		t.Error("refetch from bulk expected")
	}
}

func TestParallelPagerBasic(t *testing.T) {
	store := tinyMem(t, 8, 16)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p, err := NewParallelPager(store, sch, DefaultParallelConfig(store.Config()), nil)
	if err != nil {
		t.Fatal(err)
	}
	touchPages(t, sch, p, 1, []int{0, 1, 2, 3})
	if got := p.Stats().Faults; got != 4 {
		t.Errorf("faults = %d, want 4", got)
	}
	if p.Stats().FaulterEvictions != 0 {
		t.Error("faulting process must never evict in the parallel design")
	}
}

func TestParallelPagerUnderPressure(t *testing.T) {
	// Small core, small bulk: the dedicated processes must keep the system
	// live through sustained overcommit.
	store := tinyMem(t, 4, 4)
	if _, err := store.CreateSegment(1, 4000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	cfg := ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}
	p, err := NewParallelPager(store, sch, cfg, FIFOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]int, 40)
	for i := range pages {
		pages[i] = i % 20
	}
	touchPages(t, sch, p, 1, pages)
	st := p.Stats()
	if st.Faults != 40 {
		t.Errorf("faults = %d, want 40", st.Faults)
	}
	if st.FaulterEvictions != 0 {
		t.Errorf("faulter evictions = %d, want 0", st.FaulterEvictions)
	}
	if p.KernelEvictions == 0 {
		t.Error("dedicated processes should have performed the evictions")
	}
	if store.Stats().BulkToDisk == 0 {
		t.Error("bulk-store freeing process should have pushed pages to disk")
	}
}

func TestParallelPagerFaulterPathShorterThanSequential(t *testing.T) {
	run := func(parallel bool) FaultStats {
		store := tinyMem(t, 4, 4)
		if _, err := store.CreateSegment(1, 4000); err != nil {
			t.Fatal(err)
		}
		clk := machine.NewClock()
		sch := sched.New(clk)
		defer sch.Shutdown()
		sch.AddVP("cpu", false)
		var p Pager
		if parallel {
			pp, err := NewParallelPager(store, sch, ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}, FIFOPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			p = pp
		} else {
			p = NewSequentialPager(store, FIFOPolicy{})
		}
		pages := make([]int, 30)
		for i := range pages {
			pages[i] = i
		}
		touchPages(t, sch, p, 1, pages)
		return p.Stats()
	}
	seq := run(false)
	par := run(true)
	if par.FaulterSteps >= seq.FaulterSteps {
		t.Errorf("parallel faulter steps (%d) should be below sequential (%d)", par.FaulterSteps, seq.FaulterSteps)
	}
	if par.FaulterEvictions != 0 || seq.FaulterEvictions == 0 {
		t.Errorf("evictions: par=%d seq=%d", par.FaulterEvictions, seq.FaulterEvictions)
	}
}

func TestParallelConfigValidation(t *testing.T) {
	store := tinyMem(t, 4, 4)
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	bad := []ParallelConfig{
		{CoreLowWater: 0, CoreTarget: 1, BulkLowWater: 1, BulkTarget: 1},
		{CoreLowWater: 2, CoreTarget: 1, BulkLowWater: 1, BulkTarget: 1},
		{CoreLowWater: 1, CoreTarget: 1, BulkLowWater: 0, BulkTarget: 1},
		{CoreLowWater: 1, CoreTarget: 1, BulkLowWater: 2, BulkTarget: 1},
	}
	for i, cfg := range bad {
		if _, err := NewParallelPager(store, sch, cfg, nil); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestClockPolicySecondChance(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	pol := NewClockPolicy(store)
	// First choice sweeps: all frames recently used, so the hand clears
	// bits and eventually picks one.
	v1, err := pol.ChooseVictim(store.AppendEvictable(nil))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := store.FrameInfo(v1)
	if info.Free {
		t.Error("victim should be occupied")
	}
	// Touch one frame; the clock should prefer untouched frames.
	if _, err := store.ReadWord(v1, 0); err != nil {
		t.Fatal(err)
	}
	v2, err := pol.ChooseVictim(store.AppendEvictable(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v2 == v1 {
		t.Error("recently touched frame chosen over cold frames")
	}
}

func TestPolicyNoCandidates(t *testing.T) {
	store := tinyMem(t, 2, 2)
	if _, err := (FIFOPolicy{}).ChooseVictim(nil); err != ErrNoVictim {
		t.Error("FIFO with no candidates should return ErrNoVictim")
	}
	pol := NewClockPolicy(store)
	if _, err := pol.ChooseVictim(nil); err != ErrNoVictim {
		t.Error("clock with no candidates should return ErrNoVictim")
	}
}

func TestForProcessAdapter(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 100); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, nil)
	handled := false
	sch.Spawn("user", func(pc *sched.ProcCtx) {
		h := ForProcess(p, pc)
		if err := h.HandlePageFault(fault(1, 0)); err != nil {
			t.Errorf("adapter: %v", err)
			return
		}
		handled = true
	})
	sch.Run(0)
	if !handled {
		t.Error("adapter did not run")
	}
}
