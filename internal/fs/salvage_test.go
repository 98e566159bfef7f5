package fs

import (
	"strings"
	"testing"

	"repro/internal/mls"
)

func buildSalvageTree(t *testing.T) (*Hierarchy, map[string]uint64) {
	t.Helper()
	h := newHier(t)
	uids := map[string]uint64{}
	uids["dir"] = mustCreate(t, h, alice, RootUID, "dir", CreateOptions{Kind: KindDirectory})
	uids["a"] = mustCreate(t, h, alice, uids["dir"], "a", CreateOptions{Kind: KindSegment, Length: 8})
	uids["b"] = mustCreate(t, h, alice, uids["dir"], "b", CreateOptions{Kind: KindSegment})
	uids["sub"] = mustCreate(t, h, alice, uids["dir"], "sub", CreateOptions{Kind: KindDirectory})
	uids["c"] = mustCreate(t, h, alice, uids["sub"], "c", CreateOptions{Kind: KindSegment})
	return h, uids
}

func TestSalvageCleanTree(t *testing.T) {
	h, _ := buildSalvageTree(t)
	rep, err := h.Salvage(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean tree reported problems: %v", rep.Problems)
	}
	if rep.ObjectsWalked != 6 { // root + dir + a + b + sub + c
		t.Errorf("objects walked = %d, want 6", rep.ObjectsWalked)
	}
}

func TestSalvageDetectsAndRepairsOrphan(t *testing.T) {
	h, uids := buildSalvageTree(t)
	if err := h.CorruptForTesting(OrphanObject, uids["a"]); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Salvage(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(OrphanObject) != 1 {
		t.Fatalf("orphans = %d; problems: %v", rep.Count(OrphanObject), rep.Problems)
	}
	// Repair reattaches under >lost+found.
	rep, err = h.Salvage(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(OrphanObject) != 1 || !rep.Problems[0].Repaired {
		t.Fatalf("repair run: %v", rep.Problems)
	}
	uid, err := h.ResolvePath(alice, unc, ">lost+found>orphan."+hexUint(uids["a"]))
	if err != nil || uid != uids["a"] {
		t.Errorf("recovered orphan = %#x, %v", uid, err)
	}
	// A second pass is clean.
	rep, err = h.Salvage(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("post-repair problems: %v", rep.Problems)
	}
}

func hexUint(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{digits[v%16]}, b...)
		v /= 16
	}
	return string(b)
}

func TestSalvageDetectsAndRepairsDanglingEntry(t *testing.T) {
	h, uids := buildSalvageTree(t)
	if err := h.CorruptForTesting(DanglingEntry, uids["b"]); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Salvage(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(DanglingEntry) != 1 {
		t.Fatalf("dangling = %v", rep.Problems)
	}
	if _, err := h.Lookup(alice, unc, uids["dir"], "b"); err == nil {
		t.Error("dangling entry not removed")
	}
	rep, _ = h.Salvage(false)
	if !rep.Clean() {
		t.Errorf("post-repair problems: %v", rep.Problems)
	}
}

func TestSalvageDetectsParentAndNameMismatch(t *testing.T) {
	h, uids := buildSalvageTree(t)
	if err := h.CorruptForTesting(ParentMismatch, uids["c"]); err != nil {
		t.Fatal(err)
	}
	if err := h.CorruptForTesting(NameMismatch, uids["a"]); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Salvage(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(ParentMismatch) != 1 || rep.Count(NameMismatch) != 1 {
		t.Fatalf("problems: %v", rep.Problems)
	}
	// Repairs restore PathOf/ResolvePath inversion.
	for _, uid := range []uint64{uids["a"], uids["c"]} {
		path, err := h.PathOf(uid)
		if err != nil {
			t.Fatal(err)
		}
		back, err := h.ResolvePath(alice, unc, path)
		if err != nil || back != uid {
			t.Errorf("inversion after repair: %q -> %#x, %v", path, back, err)
		}
	}
}

func TestSalvageDetectsMissingStorage(t *testing.T) {
	h, uids := buildSalvageTree(t)
	if err := h.CorruptForTesting(MissingStorage, uids["a"]); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Salvage(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(MissingStorage) != 1 || !rep.Problems[0].Repaired {
		t.Fatalf("problems: %v", rep.Problems)
	}
	if _, ok := h.Store().SegmentLength(uids["a"]); !ok {
		t.Error("storage not recreated")
	}
}

func TestSalvageReportsLabelInversionWithoutRepair(t *testing.T) {
	h, uids := buildSalvageTree(t)
	// Force an inversion directly: relabel the parent above the child.
	if err := h.RelabelForTesting(uids["sub"], mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Salvage(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(LabelInversion) != 1 {
		t.Fatalf("problems: %v", rep.Problems)
	}
	for _, p := range rep.Problems {
		if p.Kind == LabelInversion && p.Repaired {
			t.Error("salvager must never relabel (a security decision)")
		}
	}
	if s := rep.Problems[0].String(); !strings.Contains(s, "label-inversion") {
		t.Errorf("problem string = %q", s)
	}
}

func TestSalvageWithoutRepairChangesNothing(t *testing.T) {
	h, uids := buildSalvageTree(t)
	if err := h.CorruptForTesting(OrphanObject, uids["a"]); err != nil {
		t.Fatal(err)
	}
	before := h.Count()
	rep, err := h.Salvage(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		if p.Repaired {
			t.Errorf("non-repair run repaired: %v", p)
		}
	}
	if h.Count() != before {
		t.Error("non-repair run mutated the hierarchy")
	}
	// The orphan is still orphaned.
	rep, _ = h.Salvage(false)
	if rep.Count(OrphanObject) != 1 {
		t.Error("orphan vanished without repair")
	}
}
