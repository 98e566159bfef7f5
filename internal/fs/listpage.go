package fs

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/acl"
	"repro/internal/mls"
)

// ListPage returns up to limit entries of directory dirUID in name order,
// starting strictly after cursor (empty cursor starts from the beginning),
// plus the cursor to pass for the next page — "" when the listing is
// exhausted. The cursor is the last name returned, so pagination is stable
// under concurrent mutation: entries created or deleted between pages never
// shift or repeat names the caller has already seen, they only appear (or
// vanish) in their name-ordered position.
//
// Pages are cut from the directory's sorted listing (see sortedLocked):
// the cursor is found by binary search, so a page costs O(log n + limit)
// while the directory is unchanged, and the first listing after an entry
// mutation pays one O(n log n) rebuild shared with List.
func (h *Hierarchy) ListPage(who acl.Principal, subj mls.Label, dirUID uint64, cursor string, limit int) ([]DirEntry, string, error) {
	if limit <= 0 {
		return nil, "", fmt.Errorf("fs: ListPage limit %d must be positive", limit)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	dir, err := h.directory(dirUID)
	if err != nil {
		return nil, "", err
	}
	if err := h.checkDir(dir, who, subj, acl.ModeStatus); err != nil {
		return nil, "", err
	}
	h.ops.lookups.Inc()

	es := sortedLocked(dir)
	// Names are never empty, so the empty cursor starts at index 0.
	start := sort.Search(len(es), func(i int) bool { return es[i].Name > cursor })
	end := min(start+limit, len(es))
	page := slices.Clone(es[start:end])
	next := ""
	if end < len(es) { // limit > 0, so the page is not empty
		next = es[end-1].Name
	}
	return page, next, nil
}
