package core

import (
	"testing"

	"repro/internal/blockstore"
	"repro/internal/fs"
	"repro/internal/mem"
)

// checkpointJournal returns the journal bytes of a durable kernel that
// created >udd>notes, wrote three of its pages and took a checkpoint.
func checkpointJournal(tb testing.TB) []byte {
	tb.Helper()
	media := blockstore.NewMemMedia()
	k := durableKernel(tb, S6Restructured, media)
	udd := mkdir(tb, k, alice, "udd")
	seg, err := k.Services().Hierarchy.Create(alice, unc, udd, "notes", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 200,
	})
	if err != nil {
		tb.Fatalf("create segment: %v", err)
	}
	store := k.Services().Store
	for p := 0; p < 3; p++ {
		pid := mem.PageID{SegUID: seg, Index: p}
		if err := store.WriteWords(pid, 1, []uint64{uint64(1000 + p)}, 0); err != nil {
			tb.Fatalf("write %v: %v", pid, err)
		}
	}
	if _, err := k.Checkpoint(map[string]string{"origin": "fuzz"}); err != nil {
		tb.Fatalf("Checkpoint: %v", err)
	}
	journal, err := media.Contents()
	if err != nil {
		tb.Fatal(err)
	}
	return journal
}

// FuzzRestoreManifest restores a kernel from a real checkpoint journal
// whose manifest is replaced by the fuzz input: the journal is reopened and
// checkpointed again with the input as the manifest, so the block map is
// the valid checkpoint's. Restore must never panic. It either fails with
// an error or boots a kernel that holds every segment the manifest lists,
// at the listed length.
func FuzzRestoreManifest(f *testing.F) {
	journal := checkpointJournal(f)
	f.Fuzz(func(t *testing.T, manifest []byte) {
		if len(manifest) > 1<<16 {
			return
		}
		media := blockstore.NewMemMedia()
		if err := media.Append(journal); err != nil {
			t.Fatal(err)
		}
		bs, _, err := blockstore.Open(blockstore.Config{Media: media})
		if err != nil {
			t.Fatalf("reopening the checkpoint journal: %v", err)
		}
		if err := bs.Checkpoint(manifest); err != nil {
			t.Fatalf("recording the fuzzed manifest: %v", err)
		}
		mc := mem.DefaultConfig()
		mc.CoreFrames = 16
		mc.BulkBlocks = 32
		k, _, err := Restore(Config{Mem: &mc}, bs)
		if err != nil {
			return
		}
		defer k.Shutdown()
		man, err := DecodeManifest(manifest)
		if err != nil {
			t.Fatalf("restore booted from a manifest that does not decode: %v", err)
		}
		for _, seg := range man.Segments {
			if length, ok := k.Services().Store.SegmentLength(seg.UID); !ok || length != seg.Length {
				t.Errorf("segment %#x: restored length %d (present %v), manifest says %d",
					seg.UID, length, ok, seg.Length)
			}
		}
	})
}
