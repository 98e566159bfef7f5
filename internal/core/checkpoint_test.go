package core

import (
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/fs"
	"repro/internal/mem"
)

// durableKernel boots a kernel over a blockstore journal on media.
func durableKernel(t testing.TB, stage Stage, media *blockstore.MemMedia) *Kernel {
	t.Helper()
	bs, rep, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		t.Fatalf("blockstore.Open: %v", err)
	}
	if rep.Records != 0 && media.Size() == 0 {
		t.Fatalf("fresh journal replayed records: %+v", rep)
	}
	mc := mem.DefaultConfig()
	mc.CoreFrames = 16
	mc.BulkBlocks = 32
	mc.Backing = bs
	k, err := New(Config{Stage: stage, Mem: &mc})
	if err != nil {
		t.Fatalf("New over blockstore: %v", err)
	}
	t.Cleanup(k.Shutdown)
	return k
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	media := blockstore.NewMemMedia()
	k := durableKernel(t, S6Restructured, media)
	hier := k.Services().Hierarchy
	store := k.Services().Store

	udd := mkdir(t, k, alice, "udd")
	segUID, err := hier.Create(alice, unc, udd, "notes", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 200,
	})
	if err != nil {
		t.Fatalf("create segment: %v", err)
	}
	// Touch three pages with distinct contents.
	for p := 0; p < 3; p++ {
		pid := mem.PageID{SegUID: segUID, Index: p}
		f, err := store.MaterializeZero(pid)
		if err != nil {
			t.Fatalf("materialize %v: %v", pid, err)
		}
		if err := store.WriteWord(f, 1, uint64(1000+p)); err != nil {
			t.Fatalf("write %v: %v", pid, err)
		}
	}

	rep, err := k.Checkpoint(map[string]string{"origin": "round-trip test"})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if rep.Segments == 0 || rep.PagesFlushed < 3 {
		t.Fatalf("checkpoint report %+v: expected >=1 segment, >=3 pages", rep)
	}

	// Post-checkpoint work that must NOT survive the crash: a new
	// directory and a mutation to page 0.
	mkdir(t, k, alice, "scratch")
	pid0 := mem.PageID{SegUID: segUID, Index: 0}
	if f, _, err := store.PageIn(pid0); err == nil {
		_ = store.WriteWord(f, 1, 9999)
	} else {
		// Page 0 may still be in core; find it.
		loc, err := store.Locate(pid0)
		if err != nil || loc.Level != mem.LevelCore {
			t.Fatalf("locate %v: %v %v", pid0, loc, err)
		}
		_ = store.WriteWord(loc.Frame, 1, 9999)
	}

	// Crash: the process dies, unsynced journal bytes are lost.
	k.Shutdown()
	if err := media.Tear(0); err != nil {
		t.Fatalf("tear: %v", err)
	}

	bs2, rrep, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if rrep.Checkpoints == 0 {
		t.Fatalf("replay after crash found no checkpoint record: %+v", rrep)
	}
	mc2 := mem.DefaultConfig()
	mc2.CoreFrames = 16
	mc2.BulkBlocks = 32
	k2, res, err := Restore(Config{Mem: &mc2}, bs2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(k2.Shutdown)

	if res.VCycle != rep.VCycle {
		t.Errorf("restored vcycle %d, checkpoint said %d", res.VCycle, rep.VCycle)
	}
	if res.Stage != S6Restructured {
		t.Errorf("restored stage %v", res.Stage)
	}
	if res.Meta["origin"] != "round-trip test" {
		t.Errorf("meta lost: %+v", res.Meta)
	}
	if !strings.Contains(k2.BootReport, "restored from checkpoint") {
		t.Errorf("boot report %q", k2.BootReport)
	}

	hier2 := k2.Services().Hierarchy
	if _, err := hier2.ResolvePath(alice, unc, ">udd>notes"); err != nil {
		t.Fatalf("restored hierarchy lost >udd>notes: %v", err)
	}
	if _, err := hier2.ResolvePath(alice, unc, ">scratch"); err == nil {
		t.Errorf("post-checkpoint directory survived the crash")
	}

	store2 := k2.Services().Store
	for p := 0; p < 3; p++ {
		pid := mem.PageID{SegUID: segUID, Index: p}
		f, _, err := store2.PageIn(pid)
		if err != nil {
			t.Fatalf("page-in restored %v: %v", pid, err)
		}
		got, err := store2.ReadWord(f, 1)
		if err != nil {
			t.Fatalf("read restored %v: %v", pid, err)
		}
		if got != uint64(1000+p) {
			t.Errorf("page %d word 1 = %d, want %d (post-checkpoint write must not survive)", p, got, 1000+p)
		}
	}
}

// TestCheckpointRestoreVolatile exercises the same barrier against the
// default volatile MemStore: checkpoint and restore work within one
// process lifetime (the manifest lives in memory), which is what the
// conformance suite relies on.
func TestCheckpointRestoreVolatile(t *testing.T) {
	k := newKernel(t, S2RefNamesRemoved)
	mkdir(t, k, alice, "udd")
	rep, err := k.Checkpoint(nil)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	backing := k.Services().Store.Backing()
	k.Shutdown()

	k2, res, err := Restore(Config{}, backing)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(k2.Shutdown)
	if res.Stage != S2RefNamesRemoved {
		t.Errorf("restored stage %v, checkpoint was at S2", res.Stage)
	}
	if res.VCycle != rep.VCycle {
		t.Errorf("vcycle %d != %d", res.VCycle, rep.VCycle)
	}
	if _, err := k2.Services().Hierarchy.ResolvePath(alice, unc, ">udd"); err != nil {
		t.Fatalf("restored hierarchy lost >udd: %v", err)
	}
}

func TestRestorePageSizeMismatch(t *testing.T) {
	k := newKernel(t, S0Baseline)
	if _, err := k.Checkpoint(nil); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	backing := k.Services().Store.Backing()
	k.Shutdown()

	mc := mem.DefaultConfig()
	mc.PageWords = 128
	if _, _, err := Restore(Config{Mem: &mc}, backing); err == nil {
		t.Fatal("restore with mismatched page size succeeded")
	}
}

func TestCheckpointMetricsContinuity(t *testing.T) {
	k := newKernel(t, S0Baseline)
	mkdir(t, k, alice, "udd")
	before := counterValue(t, k, "fs.creates")
	if before == 0 {
		t.Fatalf("fs.creates is zero after a create")
	}
	if _, err := k.Checkpoint(nil); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	backing := k.Services().Store.Backing()
	k.Shutdown()
	k2, _, err := Restore(Config{}, backing)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(k2.Shutdown)
	if after := counterValue(t, k2, "fs.creates"); after < before {
		t.Errorf("fs.creates regressed across restore: %d -> %d", before, after)
	}
}

func counterValue(t *testing.T, k *Kernel, name string) int64 {
	t.Helper()
	for _, c := range k.Services().Metrics.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func TestRestoreRefusesWithoutCheckpoint(t *testing.T) {
	if _, _, err := Restore(Config{}, mem.NewMemStore()); err == nil {
		t.Fatal("restore from an empty backing store succeeded")
	}
}
