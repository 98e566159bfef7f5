package fs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// entryMapSorted is the listing oracle: a name-sorted copy of dir's entry
// map, read straight from the object rather than through List.
func entryMapSorted(t *testing.T, h *Hierarchy, dirUID uint64) []DirEntry {
	t.Helper()
	h.mu.Lock()
	dir, err := h.directory(dirUID)
	if err != nil {
		h.mu.Unlock()
		t.Fatal(err)
	}
	out := make([]DirEntry, 0, len(dir.entries))
	for _, e := range dir.entries {
		out = append(out, *e)
	}
	h.mu.Unlock()
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// collectEntries pages through the whole directory with the given limit,
// keeping every field of every entry.
func collectEntries(t *testing.T, h *Hierarchy, dir uint64, limit int) []DirEntry {
	t.Helper()
	out := []DirEntry{}
	cursor := ""
	for {
		page, next, err := h.ListPage(alice, unc, dir, cursor, limit)
		if err != nil {
			t.Fatalf("ListPage(cursor %q, limit %d): %v", cursor, limit, err)
		}
		out = append(out, page...)
		if next == "" {
			return out
		}
		cursor = next
	}
}

// checkListing asserts List and ListPage at limits 1, 7 and 64 all equal
// the entry-map oracle.
func checkListing(t *testing.T, h *Hierarchy, dir uint64, step string) {
	t.Helper()
	want := entryMapSorted(t, h, dir)
	got, err := h.List(alice, unc, dir)
	if err != nil {
		t.Fatalf("%s: List: %v", step, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: List = %v, entry map = %v", step, got, want)
	}
	for _, limit := range []int{1, 7, 64} {
		if got := collectEntries(t, h, dir, limit); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ListPage limit %d = %v, entry map = %v", step, limit, got, want)
		}
	}
}

// Seeded Create/AddLink/Delete/Rename sequences: after every step, List
// and every page size agree with the entry map, so no mutation can leave a
// stale sorted listing behind.
func TestListingTracksEntryMapUnderMutation(t *testing.T) {
	for _, seed := range []int64{1, 2, 1975} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := newHier(t)
			dir := mustCreate(t, h, alice, RootUID, "d", CreateOptions{Kind: KindDirectory})
			r := rand.New(rand.NewSource(seed))
			// Mixed-width names so lexicographic order differs from numeric.
			name := func() string { return fmt.Sprintf("n%d", r.Intn(90)) }
			checkListing(t, h, dir, "empty")
			for i := 0; i < 400; i++ {
				var step string
				switch op := r.Intn(10); {
				case op < 4:
					n := name()
					kind := KindSegment
					if r.Intn(4) == 0 {
						kind = KindDirectory
					}
					_, err := h.Create(alice, unc, dir, n, CreateOptions{Kind: kind, Label: unc})
					step = fmt.Sprintf("step %d create %q (%v)", i, n, err)
				case op < 5:
					n := name()
					err := h.AddLink(alice, unc, dir, n, ">d>"+name())
					step = fmt.Sprintf("step %d link %q (%v)", i, n, err)
				case op < 8:
					n := name()
					err := h.Delete(alice, unc, dir, n)
					step = fmt.Sprintf("step %d delete %q (%v)", i, n, err)
				default:
					from, to := name(), name()
					err := h.Rename(alice, unc, dir, from, to)
					step = fmt.Sprintf("step %d rename %q -> %q (%v)", i, from, to, err)
				}
				checkListing(t, h, dir, step)
			}
		})
	}
}

// The listing handed out is the caller's own copy: scribbling on it must
// not reach the next caller through the shared sorted view.
func TestListReturnsPrivateCopy(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "d", CreateOptions{Kind: KindDirectory})
	for _, n := range []string{"b", "a", "c"} {
		mustCreate(t, h, alice, dir, n, CreateOptions{Kind: KindSegment})
	}
	got, err := h.List(alice, unc, dir)
	if err != nil {
		t.Fatal(err)
	}
	got[0].Name = "zzz"
	page, _, err := h.ListPage(alice, unc, dir, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	page[1].Name = "yyy"
	checkListing(t, h, dir, "after scribbling on returned slices")
}

// Concurrent List and ListPage calls beside mutations (run under -race):
// every listing is sorted and duplicate-free, and names no writer touches
// are always present.
func TestConcurrentListBesideMutations(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "d", CreateOptions{Kind: KindDirectory})
	const stable = 32
	for i := 0; i < stable; i++ {
		mustCreate(t, h, alice, dir, fmt.Sprintf("stable.%02d", i), CreateOptions{Kind: KindSegment})
	}
	check := func(es []DirEntry) error {
		seen := 0
		for i, e := range es {
			if i > 0 && es[i-1].Name >= e.Name {
				return fmt.Errorf("listing out of order at %d: %q >= %q", i, es[i-1].Name, e.Name)
			}
			if strings.HasPrefix(e.Name, "stable.") {
				seen++
			}
		}
		if seen != stable {
			return fmt.Errorf("listing shows %d stable names, want %d", seen, stable)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a := fmt.Sprintf("w%d.%d", w, i%11)
				b := fmt.Sprintf("w%d.r%d", w, i%11)
				_, _ = h.Create(alice, unc, dir, a, CreateOptions{Kind: KindSegment, Label: unc})
				_ = h.AddLink(alice, unc, dir, a+".l", ">d>"+a)
				_ = h.Rename(alice, unc, dir, a, b)
				_ = h.Delete(alice, unc, dir, b)
				_ = h.Delete(alice, unc, dir, a+".l")
			}
		}(w)
	}
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				es, err := h.List(alice, unc, dir)
				if err == nil {
					err = check(es)
				}
				if err == nil {
					var page []DirEntry
					page, _, err = h.ListPage(alice, unc, dir, "stable.", 1+rd*7)
					for j := 1; err == nil && j < len(page); j++ {
						if page[j-1].Name >= page[j].Name {
							err = fmt.Errorf("page out of order: %q >= %q", page[j-1].Name, page[j].Name)
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkListing(t, h, dir, "after the storm")
}

// Salvage repairs and the fault plane's injected damage write entry maps
// directly; the directory's sorted listing must follow them rather than
// serve the view from before.
func TestListingFollowsSalvageAndCorruption(t *testing.T) {
	for _, kind := range []ProblemKind{OrphanObject, DanglingEntry, ParentMismatch, NameMismatch, MissingStorage} {
		t.Run(kind.String(), func(t *testing.T) {
			h, uids := buildSalvageTree(t)
			dirs := []uint64{RootUID, uids["dir"], uids["sub"]}
			for _, d := range dirs {
				checkListing(t, h, d, "before damage") // builds every listing
			}
			if err := h.CorruptForTesting(kind, uids["a"]); err != nil {
				t.Fatal(err)
			}
			for _, d := range dirs {
				checkListing(t, h, d, "after "+kind.String())
			}
			if _, err := h.Salvage(true); err != nil {
				t.Fatal(err)
			}
			for _, d := range dirs {
				checkListing(t, h, d, "after repair")
			}
			names := func(dir uint64) []string {
				es, err := h.List(alice, unc, dir)
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, e := range es {
					out = append(out, e.Name)
				}
				return out
			}
			switch kind {
			case OrphanObject:
				if slices.Contains(names(uids["dir"]), "a") {
					t.Error("orphaned entry still listed in its old directory")
				}
				if !slices.Contains(names(RootUID), "lost+found") {
					t.Fatal("lost+found not listed in the root after repair")
				}
				lost, err := h.ResolvePath(alice, unc, ">lost+found")
				if err != nil {
					t.Fatal(err)
				}
				checkListing(t, h, lost, "lost+found")
				if want := "orphan." + hexUint(uids["a"]); !slices.Contains(names(lost), want) {
					t.Errorf("lost+found lists %v, want %q", names(lost), want)
				}
			case DanglingEntry:
				if slices.Contains(names(uids["dir"]), "a") {
					t.Error("dangling entry still listed after repair")
				}
			}
		})
	}
}
