// Path-prefix resolution cache.
//
// ResolvePath on a deep tree pays one directory lookup plus one cached (or
// full) access check per component. The path cache memoizes resolved
// prefixes per (path, principal, subject-label): resolving >udd>a>b>c after
// >udd>a>b>d finds the >udd>a>b prefix cached and walks one component
// instead of four.
//
// Safety: each entry carries the complete chain of objects the original
// walk relied on — every directory whose ACL was checked and whose entry
// map was read, *including* directories reached while chasing interior
// links — with the ACL and entry generations observed at fill time. A hit
// is honored only if every step's generations are unchanged. Any
// SetACL/RemoveACL/Reclassify (aclGen) or Create/Delete/AddLink/Rename
// (entGen) anywhere along the chain makes the comparison fail, so a
// revoked or re-routed prefix is never served stale. The walk and the
// fill run under the hierarchy's mu, so no mutation lands between
// observing an object and recording its generations.
//
// Steady state is cheaper still: every generation bump also bumps one
// hierarchy-wide mutation epoch, and an entry whose fill-time epoch is
// still current skips the per-step scan entirely — in a read-dominated
// phase a cached resolution is one probe plus one comparison, regardless
// of path depth. The epoch is purely an accelerator: an epoch mismatch
// falls back to the per-step generation checks, so unrelated mutations
// slow hits without evicting them, and the safety argument never rests on
// the epoch at all.
//
// Layout: entries are keyed in two levels — a small outer map from
// (principal, label) to that subject's view, then one inner map keyed by
// the path string alone. Distinct subjects must never share entries (the
// verdict chain embeds their access rights), and the split means the
// per-probe cost is hashing one string, not a five-string composite: the
// subject view is fetched once per resolution and reused for every prefix
// probe and fill of the walk.
package fs

import (
	"repro/internal/acl"
	"repro/internal/metrics"
)

// subjKey identifies one subject's view of the hierarchy: the principal
// plus its mandatory label.
type subjKey struct {
	who   acl.Principal
	label string
}

// pathStep records one object the walk depended on and the generations
// under which it was observed.
type pathStep struct {
	obj    *Object
	aclGen uint64
	entGen uint64
}

// pathEntry is an immutable resolved prefix: the target UID plus the
// validation chain. steps is snapshot-copied at fill and never mutated.
type pathEntry struct {
	uid uint64
	// links is how deep the filling walk nested link chases below the
	// walk that filled the entry. A hit stands in for that walk, so a walk
	// at link depth d honors it only while d+links stays within
	// maxLinkDepth; deeper, the walk itself would fail with ErrLinkLoop.
	links int
	// epoch is the hierarchy-wide mutation epoch when the filling walk
	// began. If the epoch is still current at lookup time, no ACL, label,
	// or entry mutated anywhere since before the fill, so the whole chain
	// is trivially valid and the per-step scan is skipped.
	epoch uint64
	steps []pathStep
}

// valid reports whether the entry may be honored. now is the current
// hierarchy mutation epoch: an exact match proves nothing mutated since
// before the fill (the O(1) steady-state fast path); otherwise every step's
// generations are re-checked individually, so unrelated mutations cost a
// scan but never evict, and relevant mutations are always detected.
func (e *pathEntry) valid(now uint64) bool {
	if now == e.epoch {
		return true
	}
	for i := range e.steps {
		s := &e.steps[i]
		if s.obj.aclGen != s.aclGen || s.obj.entGen != s.entGen {
			return false
		}
	}
	return true
}

// pathViewCap bounds each subject view; it is sized so a ~100k-path
// working set (E18 resolves a 50k sample against a 1.1M-segment tree, with
// prefix fills on top) stays resident. On overflow the view is reset
// wholesale.
const pathViewCap = 1 << 19

// pathCache is guarded by the hierarchy's mu.
type pathCache struct {
	// subjs has one view per (principal, label) that ever resolved a
	// name, each mapping a path to its resolved entry.
	subjs   map[subjKey]map[string]*pathEntry
	enabled bool

	hits, misses, fills, invalidations, evictions *metrics.Counter
}

func newPathCache() *pathCache {
	return &pathCache{enabled: true, subjs: make(map[subjKey]map[string]*pathEntry)}
}

func (c *pathCache) bind(reg *metrics.Registry) {
	c.hits = reg.Counter("fs.path_cache.hits")
	c.misses = reg.Counter("fs.path_cache.misses")
	c.fills = reg.Counter("fs.path_cache.fills")
	c.invalidations = reg.Counter("fs.path_cache.invalidations")
	c.evictions = reg.Counter("fs.path_cache.evictions")
}

// view returns the subject's path index, creating it on first use.
func (c *pathCache) view(k subjKey) map[string]*pathEntry {
	sp := c.subjs[k]
	if sp == nil {
		sp = make(map[string]*pathEntry)
		c.subjs[k] = sp
	}
	return sp
}

// lookup returns a valid cached entry for path in the subject view sp
// (nil sp = subject has no entries) whose link chases nest at most links
// deep. now is the hierarchy mutation epoch. An entry that fails
// validation is left in place; the next fill of the same path overwrites
// it.
func (c *pathCache) lookup(sp map[string]*pathEntry, path string, now uint64, links int) *pathEntry {
	if e := sp[path]; e != nil && e.links <= links && e.valid(now) {
		c.hits.Inc()
		return e
	}
	c.misses.Inc()
	return nil
}

// store records a resolved prefix in the subject view.
func (c *pathCache) store(sp map[string]*pathEntry, path string, e *pathEntry) {
	if len(sp) >= pathViewCap {
		clear(sp)
		c.evictions.Inc()
	}
	sp[path] = e
	c.fills.Inc()
}
