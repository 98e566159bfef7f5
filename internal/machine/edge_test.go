package machine

import (
	"errors"
	"strings"
	"testing"
)

// TestRingRestoredAfterCalleeError verifies the processor restores the
// caller's ring even when the callee returns an error — an inner-ring
// escalation would otherwise survive the failure.
func TestRingRestoredAfterCalleeError(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	boom := errors.New("callee failed")
	failing := &Procedure{Name: "failing", Entries: []EntryFunc{
		func(ctx *ExecContext, _ []uint64) ([]uint64, error) {
			if ctx.Ring() != KernelRing {
				t.Errorf("callee ring = %v", ctx.Ring())
			}
			return nil, boom
		},
	}}
	mustSet(t, ds, 1, SDW{Proc: failing, Mode: ModeExecute, Brackets: GateBrackets(KernelRing, UserRing), Gates: 1})
	if _, err := p.Call(1, 0, nil); !errors.Is(err, boom) {
		t.Fatalf("call = %v", err)
	}
	if p.Ring() != UserRing {
		t.Errorf("ring after failed gate call = %v, want user ring", p.Ring())
	}
}

// TestNestedCrossRingCalls verifies ring save/restore through a chain:
// user ring -> kernel gate -> outward to user-ring helper -> return.
func TestNestedCrossRingCalls(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	var rings []Ring
	helper := &Procedure{Name: "helper", Entries: []EntryFunc{
		func(ctx *ExecContext, _ []uint64) ([]uint64, error) {
			rings = append(rings, ctx.Ring())
			return nil, nil
		},
	}}
	kernel := &Procedure{Name: "kernel", Entries: []EntryFunc{
		func(ctx *ExecContext, _ []uint64) ([]uint64, error) {
			rings = append(rings, ctx.Ring())
			// Outward call: the helper runs in the user ring.
			if _, err := ctx.Call(2, 0, nil); err != nil {
				return nil, err
			}
			rings = append(rings, ctx.Ring())
			return nil, nil
		},
	}}
	mustSet(t, ds, 1, SDW{Proc: kernel, Mode: ModeExecute, Brackets: GateBrackets(KernelRing, UserRing), Gates: 1})
	mustSet(t, ds, 2, SDW{Proc: helper, Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(rings) != 3 || rings[0] != KernelRing || rings[1] != UserRing || rings[2] != KernelRing {
		t.Errorf("ring chain = %v, want [0 4 0]", rings)
	}
	if p.Ring() != UserRing {
		t.Errorf("final ring = %v", p.Ring())
	}
}

// TestGateCallCostAccounting verifies each component of a gate call's cost
// is charged exactly once.
func TestGateCallCostAccounting(t *testing.T) {
	cost := Model6180()
	p, ds, clk := newTestProc(UserRing, cost)
	mustSet(t, ds, 1, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: GateBrackets(KernelRing, UserRing), Gates: 1})
	start := clk.Now()
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	// The first call misses the associative memory: probe + full walk.
	want := cost.Call + cost.Return + cost.GateCheck + 2*cost.RingCrossExtra +
		cost.AssocSearch + cost.DescriptorWalk
	if got := clk.Now() - start; got != want {
		t.Errorf("gate call cost = %d, want %d", got, want)
	}
	// The second call hits: the descriptor walk is not charged again.
	start = clk.Now()
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	want = cost.Call + cost.Return + cost.GateCheck + 2*cost.RingCrossExtra + cost.AssocSearch
	if got := clk.Now() - start; got != want {
		t.Errorf("cached gate call cost = %d, want %d", got, want)
	}
}

// TestStatsFaultsAreCopied verifies Stats returns a snapshot, not a live
// map.
func TestStatsFaultsAreCopied(t *testing.T) {
	p, _, _ := newTestProc(UserRing, Model6180())
	if _, err := p.Load(1, 0); err == nil {
		t.Fatal("expected fault")
	}
	st := p.Stats()
	st.Faults[FaultSegment] = 99
	if p.Stats().Faults[FaultSegment] == 99 {
		t.Error("Stats leaked internal map")
	}
}

// TestExecContextAccessors covers the context's identity methods.
func TestExecContextAccessors(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	probe := &Procedure{Name: "probe", Entries: []EntryFunc{
		func(ctx *ExecContext, _ []uint64) ([]uint64, error) {
			if ctx.Segment() != 1 {
				t.Errorf("Segment = %d", ctx.Segment())
			}
			if ctx.Processor() != p {
				t.Error("Processor mismatch")
			}
			return nil, nil
		},
	}}
	mustSet(t, ds, 1, SDW{Proc: probe, Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapLinkOverwriteAndCount covers explicit snapping bookkeeping.
func TestSnapLinkOverwriteAndCount(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	mustSet(t, ds, 1, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	ref := LinkRef{SegName: "a", EntryName: "b"}
	p.SnapLink(5, ref, LinkTarget{Seg: 1, Entry: 0})
	p.SnapLink(5, LinkRef{SegName: "c", EntryName: "d"}, LinkTarget{Seg: 1, Entry: 0})
	if p.SnappedLinkCount(5) != 2 {
		t.Errorf("count = %d", p.SnappedLinkCount(5))
	}
	// Overwrite is allowed at the machine level (hcs_$link_force uses it).
	p.SnapLink(5, ref, LinkTarget{Seg: 1, Entry: 0})
	if p.SnappedLinkCount(5) != 2 {
		t.Errorf("overwrite changed count: %d", p.SnappedLinkCount(5))
	}
	if _, ok := p.SnappedLink(6, ref); ok {
		t.Error("link visible in wrong segment scope")
	}
}

// TestBracketHelpers pins the helper constructors' shapes.
func TestBracketHelpers(t *testing.T) {
	kb := KernelBrackets()
	if kb.R1 != 0 || kb.R2 != 0 || kb.R3 != 0 {
		t.Errorf("KernelBrackets = %v", kb)
	}
	gb := GateBrackets(KernelRing, UserRing)
	if gb.R1 != 0 || gb.R2 != 0 || gb.R3 != UserRing {
		t.Errorf("GateBrackets = %v", gb)
	}
	ub := UserBrackets(UserRing)
	if ub.R1 != UserRing || ub.R3 != UserRing {
		t.Errorf("UserBrackets = %v", ub)
	}
	if !Ring(7).Valid() || Ring(8).Valid() || Ring(-1).Valid() {
		t.Error("Ring.Valid boundaries wrong")
	}
}

// TestFaultErrorRendering covers the fault formatting paths.
func TestFaultErrorRendering(t *testing.T) {
	f := &Fault{Class: FaultRing, Seg: 3, Offset: 9, Ring: UserRing, Wanted: ModeWrite, Detail: "write bracket [0,0,0]"}
	msg := f.Error()
	for _, want := range []string{"ring-violation", "segment 3", "offset 9", "ring 4", "-w-", "bracket"} {
		if !strings.Contains(msg, want) {
			t.Errorf("fault message %q missing %q", msg, want)
		}
	}
	if _, ok := AsFault(errors.New("plain")); ok {
		t.Error("AsFault matched a non-fault")
	}
	if IsFaultClass(nil, FaultRing) {
		t.Error("IsFaultClass(nil) = true")
	}
	pf := &PageFault{Page: 2, SegTag: 0xbeef}
	if !strings.Contains(pf.Error(), "page 2") {
		t.Errorf("page fault message = %q", pf.Error())
	}
	for c := FaultAccess; c <= FaultOutOfBounds+1; c++ {
		if c.String() == "" {
			t.Errorf("empty string for class %d", int(c))
		}
	}
}
