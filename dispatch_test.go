package repro

import (
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mls"
)

// TestTracedGateDispatchAllocatesNothing pins the zero-allocation gate
// path: the processor reuses a depth-indexed ExecContext cache and a
// per-context result arena (ctx.Out), and the trace ring publishes into
// pre-allocated value slots, so a niladic user gate call touches no heap
// whether the ring records it or not.
func TestTracedGateDispatchAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		traceOn bool
	}{
		{"trace-on", true},
		{"trace-off", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := buildKernel(t, core.S6Restructured)
			k.Services().Trace.SetEnabled(tc.traceOn)
			p, err := k.CreateProcess("alloc", acl.Principal{Person: "Alloc", Project: "Perf", Tag: "a"},
				mls.NewLabel(mls.Unclassified), machine.UserRing)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := k.Services().UserGates.EntryIndex("hcs_$get_system_info")
			if err != nil {
				t.Fatal(err)
			}
			// Warm the descriptor path and the context cache first.
			if _, err := p.CPU.Call(core.SegHCS, idx, nil); err != nil {
				t.Fatal(err)
			}
			before := k.Services().Trace.Written()
			allocs := testing.AllocsPerRun(2000, func() {
				if _, err := p.CPU.Call(core.SegHCS, idx, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("gate dispatch allocates %.1f objects/call, want 0", allocs)
			}
			if recorded := k.Services().Trace.Written() > before; recorded != tc.traceOn {
				t.Errorf("trace ring recorded events = %v, want %v", recorded, tc.traceOn)
			}
		})
	}
}
