package fs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/acl"
	"repro/internal/mls"
)

// fuzzTree builds the fixed tree FuzzResolvePath resolves against:
//
//	>d1>lnk -> >d2         an interior link
//	>d2>s, >d2>a>b>c>seg   a valid deep path
//	>cyc1 -> >cyc2 -> >cyc1  a two-link cycle
//	>c1 -> >c2 -> ... -> >c9 -> >t   one link deeper than maxLinkDepth
//	>t>ts                  the chain's target
//	>priv                  a directory alice may not search (ACL)
//	>secret                a directory above alice's label (MLS)
//
// It returns the paths that resolve for alice, which warm the cache.
func fuzzTree(t testing.TB, h *Hierarchy) []string {
	dir := func(parent uint64, name string, opts CreateOptions) uint64 {
		opts.Kind = KindDirectory
		if opts.Label.Level == 0 {
			opts.Label = unc
		}
		uid, err := h.Create(alice, unc, parent, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		return uid
	}
	seg := func(parent uint64, name string) {
		if _, err := h.Create(alice, unc, parent, name, CreateOptions{Label: unc}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(parent uint64, name, target string) {
		if err := h.AddLink(alice, unc, parent, name, target); err != nil {
			t.Fatal(err)
		}
	}
	d1 := dir(RootUID, "d1", CreateOptions{})
	d2 := dir(RootUID, "d2", CreateOptions{})
	link(d1, "lnk", ">d2")
	seg(d2, "s")
	a := dir(d2, "a", CreateOptions{})
	b := dir(a, "b", CreateOptions{})
	c := dir(b, "c", CreateOptions{})
	seg(c, "seg")
	link(RootUID, "cyc1", ">cyc2")
	link(RootUID, "cyc2", ">cyc1")
	for i := 1; i <= maxLinkDepth; i++ {
		link(RootUID, fmt.Sprintf("c%d", i), fmt.Sprintf(">c%d", i+1))
	}
	link(RootUID, fmt.Sprintf("c%d", maxLinkDepth+1), ">t")
	seg(dir(RootUID, "t", CreateOptions{}), "ts")
	bobOnly := acl.New(acl.Entry{Who: bobPat(), Mode: acl.ModeStatus | acl.ModeModify | acl.ModeAppend})
	dir(RootUID, "priv", CreateOptions{ACL: bobOnly})
	dir(RootUID, "secret", CreateOptions{Label: mls.NewLabel(mls.Secret)})

	resolving := []string{">d1>lnk>s", ">d2>a>b>c>seg", ">t>ts"}
	for i := 2; i <= maxLinkDepth+1; i++ {
		resolving = append(resolving, fmt.Sprintf(">c%d", i))
	}
	return resolving
}

// fsSentinels are the errors a failed resolution must wrap, unless it is
// an access denial.
var fsSentinels = []error{
	ErrNotFound, ErrExists, ErrNotDirectory, ErrNotSegment, ErrNotEmpty, ErrBadPath,
	ErrLinkLoop, ErrParentLoop, ErrLabelTooLow, ErrNoSuchUID, ErrRootImmutable,
}

func classified(err error) bool {
	for _, s := range fsSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	var denied *acl.DeniedError
	var violation *mls.Violation
	return errors.As(err, &denied) || errors.As(err, &violation)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzResolvePath resolves fuzzed path names against a fixed tree. No
// input may panic, every error must be classified, and the cached
// hierarchy — warmed with every path that resolves, then asked twice so
// the second answer is a cache hit — must answer exactly as an uncached
// twin does. The seed corpus is testdata/fuzz/FuzzResolvePath.
func FuzzResolvePath(f *testing.F) {
	cached := newHier(f)
	warm := fuzzTree(f, cached)
	uncached := newHier(f)
	fuzzTree(f, uncached)
	uncached.SetCacheEnabled(false)
	f.Fuzz(func(t *testing.T, path string) {
		cached.FlushCaches()
		for _, w := range warm {
			if _, err := cached.ResolvePath(alice, unc, w); err != nil {
				t.Fatalf("warm-up %q: %v", w, err)
			}
		}
		want, werr := uncached.ResolvePath(alice, unc, path)
		if werr != nil && !classified(werr) {
			t.Fatalf("ResolvePath(%q) uncached: unclassified error %v", path, werr)
		}
		for pass := 1; pass <= 2; pass++ {
			got, err := cached.ResolvePath(alice, unc, path)
			if got != want || errText(err) != errText(werr) {
				t.Fatalf("ResolvePath(%q) cached pass %d = %#x, %v; uncached = %#x, %v",
					path, pass, got, err, want, werr)
			}
		}
	})
}
