package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/mls"
)

// checkpointedJournal boots a kernel over a blockstore journal, writes
// three distinct pages into a segment, takes a checkpoint and returns the
// journal bytes. The checkpoint writes its pages as one batch group.
func checkpointedJournal(t *testing.T) []byte {
	t.Helper()
	media := blockstore.NewMemMedia()
	bs, _, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		t.Fatal(err)
	}
	mc := mem.DefaultConfig()
	mc.CoreFrames = 16
	mc.BulkBlocks = 32
	mc.Backing = bs
	k, err := core.New(core.Config{Stage: core.S6Restructured, Mem: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	who := acl.Principal{Person: "Alice", Project: "CSR", Tag: "a"}
	unc := mls.NewLabel(mls.Unclassified)
	uid, err := k.Services().Hierarchy.Create(who, unc, fs.RootUID, "notes", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := k.Services().Store
	for p := 0; p < 3; p++ {
		f, err := store.MaterializeZero(mem.PageID{SegUID: uid, Index: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteWord(f, 1, uint64(1000+p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Checkpoint(map[string]string{"origin": "ckpt test"}); err != nil {
		t.Fatal(err)
	}
	raw, err := media.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeJournal(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyCheckpointedJournal(t *testing.T) {
	path := writeJournal(t, checkpointedJournal(t))
	var out bytes.Buffer
	if err := run(&out, path, true, false); err != nil {
		t.Fatalf("run -verify: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"2 records (0 single-block writes, 1 batch groups, 0 frees, 1 checkpoints, 0 reverts)",
		"3 blocks written (3 new, 0 dedup maps)", "tail: none", "verify   ok: 3/3 checkpoint blocks readable", "meta origin = ckpt test"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

func TestTornTailReportedNotTruncated(t *testing.T) {
	raw := checkpointedJournal(t)
	// A strict prefix of a valid frame after the last whole record is
	// what a crash mid-append leaves behind.
	torn := append(append([]byte(nil), raw...), raw[:9]...)
	path := writeJournal(t, torn)
	var out bytes.Buffer
	if err := run(&out, path, false, false); err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := "9B torn"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, torn) {
		t.Errorf("inspector changed the journal: %d bytes before, %d after", len(torn), len(after))
	}
}

func TestCRCFlipIsCorruption(t *testing.T) {
	raw := checkpointedJournal(t)
	raw[len(raw)/2] ^= 0x01
	path := writeJournal(t, raw)
	var out bytes.Buffer
	err := run(&out, path, false, false)
	if err == nil {
		t.Fatalf("run accepted a damaged journal:\n%s", out.String())
	}
	if !errors.Is(err, blockstore.ErrCorrupt) || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("error %v is not a CRC mismatch wrapping blockstore.ErrCorrupt", err)
	}
}

func TestJSONIncludesBatches(t *testing.T) {
	path := writeJournal(t, checkpointedJournal(t))
	var out bytes.Buffer
	if err := run(&out, path, true, true); err != nil {
		t.Fatalf("run -json -verify: %v", err)
	}
	var doc struct {
		Recovery map[string]any `json:"recovery"`
		Verify   struct {
			OK bool `json:"ok"`
		} `json:"verify"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, out.String())
	}
	batches, ok := doc.Recovery["batches"].(float64)
	if !ok || batches < 1 {
		t.Errorf("recovery.batches = %v, want >= 1", doc.Recovery["batches"])
	}
	if !doc.Verify.OK {
		t.Errorf("verify.ok = false:\n%s", out.String())
	}
}
