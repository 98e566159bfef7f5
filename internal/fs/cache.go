// ACL decision cache: a revocation-safe memo of positive access verdicts.
//
// The kernel's access computation for one reference — branch ACL match plus
// the two mandatory checks — is pure in (object ACL, object label, subject
// principal, subject label, wanted mode). The cache memoizes positive
// verdicts keyed by exactly those inputs, with the object state represented
// by its ACL generation counter: every SetACL/RemoveACL/Delete/Reclassify
// bumps the generation inside the mutating critical section, so a cached
// verdict computed under the old ACL compares unequal and is never honored.
// This is the same discipline machine.AssocMemory enforces from
// DescriptorSegment.Set, applied one layer up.
//
// Only positive verdicts are cached: denials take the slow path every time
// so the error carries precise diagnostics (which ACL entry governed, which
// mandatory property failed), and so a *grant* becomes visible immediately
// without its own invalidation plumbing.
package fs

import (
	"repro/internal/acl"
	"repro/internal/metrics"
)

// decisionKey identifies one access computation. The label is the subject's
// canonical CacheKey string (mls.Label itself is not comparable).
type decisionKey struct {
	uid   uint64
	who   acl.Principal
	label string
	want  acl.Mode
}

// decisionCap bounds the cache; on overflow it is reset wholesale (epoch
// eviction — cheap, and a dropped entry only costs a recomputation).
const decisionCap = 1 << 18

// decisionCache is guarded by the hierarchy's mu.
type decisionCache struct {
	m       map[decisionKey]uint64 // value: aclGen at fill time
	enabled bool

	hits, misses, fills, invalidations, evictions *metrics.Counter
}

func newDecisionCache() *decisionCache {
	return &decisionCache{m: make(map[decisionKey]uint64), enabled: true}
}

func (c *decisionCache) bind(reg *metrics.Registry) {
	c.hits = reg.Counter("fs.acl_cache.hits")
	c.misses = reg.Counter("fs.acl_cache.misses")
	c.fills = reg.Counter("fs.acl_cache.fills")
	c.invalidations = reg.Counter("fs.acl_cache.invalidations")
	c.evictions = reg.Counter("fs.acl_cache.evictions")
}

// lookup reports whether a positive verdict for k is cached and still
// valid at generation gen (the object's current aclGen).
func (c *decisionCache) lookup(k decisionKey, gen uint64) bool {
	if stored, ok := c.m[k]; ok && stored == gen {
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// store records a positive verdict computed at generation gen.
func (c *decisionCache) store(k decisionKey, gen uint64) {
	if len(c.m) >= decisionCap {
		clear(c.m)
		c.evictions.Inc()
	}
	c.m[k] = gen
	c.fills.Inc()
}

// CacheStats is a point-in-time snapshot of both hierarchy caches.
type CacheStats struct {
	ACLHits, ACLMisses, ACLFills, ACLInvalidations, ACLEvictions   int64
	PathHits, PathMisses, PathFills, PathInvalidations, PathEvicts int64
}

// CacheStats snapshots the decision- and path-cache counters.
func (h *Hierarchy) CacheStats() CacheStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return CacheStats{
		ACLHits:           h.dec.hits.Value(),
		ACLMisses:         h.dec.misses.Value(),
		ACLFills:          h.dec.fills.Value(),
		ACLInvalidations:  h.dec.invalidations.Value(),
		ACLEvictions:      h.dec.evictions.Value(),
		PathHits:          h.paths.hits.Value(),
		PathMisses:        h.paths.misses.Value(),
		PathFills:         h.paths.fills.Value(),
		PathInvalidations: h.paths.invalidations.Value(),
		PathEvicts:        h.paths.evictions.Value(),
	}
}

// SetCacheEnabled turns both hierarchy caches on or off. Disabling flushes
// them, so re-enabling starts cold; the uncached mode exists for the
// E-series baseline measurements and for salvage of damaged hierarchies.
func (h *Hierarchy) SetCacheEnabled(on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dec.enabled = on
	h.paths.enabled = on
	if !on {
		h.flushCaches()
	}
}

// FlushCaches drops every cached decision and path prefix. The salvager
// flushes after repairing structures out from under the generation
// discipline; tests use it to force cold starts.
func (h *Hierarchy) FlushCaches() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flushCaches()
}

// flushCaches is FlushCaches with h.mu held.
func (h *Hierarchy) flushCaches() {
	h.dec.m = make(map[decisionKey]uint64)
	h.paths.subjs = make(map[subjKey]map[string]*pathEntry)
}
