package core

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// pageStorm boots a small-memory kernel, touches every page of a segment
// five times core's size twice over, and returns the kernel and its
// memory configuration. spec, when set, is the kernel's fault plan.
func pageStorm(t *testing.T, spec *faults.Spec) (*Kernel, mem.Config) {
	t.Helper()
	memCfg := memSmall()
	k, err := New(Config{Stage: S2RefNamesRemoved, Mem: &memCfg, Faults: spec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Shutdown)
	p, err := k.CreateProcess("alice", alice, unc, machine.UserRing)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 40
	uid, err := k.Services().Hierarchy.Create(alice, unc, fs.RootUID, "storm", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 64 * pages,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		t.Fatal(err)
	}
	seg := machine.SegNo(out[0])
	for pass := 0; pass < 2; pass++ {
		for pg := 0; pg < pages; pg++ {
			if err := p.CPU.Store(seg, pg*64, uint64(pass*pages+pg)); err != nil {
				t.Fatalf("pass %d store page %d: %v", pass, pg, err)
			}
		}
	}
	return k, memCfg
}

// TestStatsViewsMatchCounters pins the typed views to the registry
// counters that count their events: after a seeded paging storm under a
// fault plan, Pager.Stats() and the injector's Counts() read exactly the
// pagectl.* and faults.* counters.
func TestStatsViewsMatchCounters(t *testing.T) {
	k, _ := pageStorm(t, &faults.Spec{Seed: 7, MemIORate: 0.05})
	svc := k.Services()
	st := svc.Pager.Stats()
	for _, c := range []struct {
		name string
		view int64
	}{
		{"pagectl.faults", st.Faults},
		{"pagectl.wait_cycles", st.WaitCycles},
		{"pagectl.io_retries", st.IORetries},
		{"faults.mem_io", svc.Faults.Counts().MemIO},
	} {
		if c.view == 0 {
			t.Errorf("%s: the storm never exercised it", c.name)
		}
		if got := svc.Metrics.Counter(c.name).Value(); got != c.view {
			t.Errorf("%s = %d, view reads %d", c.name, got, c.view)
		}
	}
}

// TestPagerStatsContinueAcrossRestore checks that the pager's fault count
// is the checkpointed total after a restore, not a fresh count from zero.
func TestPagerStatsContinueAcrossRestore(t *testing.T) {
	k, memCfg := pageStorm(t, nil)
	if _, err := k.Checkpoint(nil); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	backing := k.Services().Store.Backing()
	raw, err := backing.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(man.Metrics, &snap); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, c := range snap.Counters {
		if c.Name == "pagectl.faults" {
			want = c.Value
		}
	}
	k.Shutdown()
	k2, _, err := Restore(Config{Mem: &memCfg}, backing)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(k2.Shutdown)
	if got := k2.Services().Pager.Stats().Faults; got != want || want == 0 {
		t.Errorf("restored Pager.Stats().Faults = %d, manifest pagectl.faults = %d", got, want)
	}
}
