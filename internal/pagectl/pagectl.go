// Package pagectl implements Multics page control twice, matching the
// before/after of the paper's process-structure simplification:
//
// SequentialPager is the old design. When a process takes a missing-page
// fault, the fault handler runs *in the faulting process* and performs the
// whole cascade synchronously: if no primary-memory frame is free it must
// first move a page to the bulk store; if no bulk-store block is free it
// must first move a page from the bulk store to disk; only then can it
// fetch the wanted page.
//
// ParallelPager is the new design. One dedicated kernel process runs in a
// loop keeping a small number of primary-memory frames free; another keeps
// bulk-store blocks free, driven by the first. A faulting process "can just
// wait until a primary memory block is free and then initiate the transfer
// of the desired page into primary memory".
//
// Both pagers expose identical fault-handling semantics, so they can be
// swapped under the same workload to regenerate the paper's comparison.
package pagectl

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// VictimPolicy selects which occupied, unwired frame to evict. The policy
// sees only frame metadata — never page contents — which is what makes the
// policy/mechanism ring split of internal/policy possible.
type VictimPolicy interface {
	// ChooseVictim picks a frame from candidates (all occupied, unwired).
	// It must return one of the candidate IDs. candidates is only borrowed
	// for the call: the pager reuses its backing array for the next
	// eviction, so an implementation must not keep the slice (or a
	// subslice of it) after it returns.
	ChooseVictim(candidates []mem.Frame) (mem.FrameID, error)
}

// ErrNoVictim is returned when no frame can be evicted (all wired or free).
var ErrNoVictim = errors.New("pagectl: no evictable frame")

// ClockPolicy is the default replacement policy: a second-chance clock over
// the frame table.
type ClockPolicy struct {
	hand  int
	store *mem.Store
}

// NewClockPolicy returns a clock policy over store (used to reset usage
// bits as the hand sweeps).
func NewClockPolicy(store *mem.Store) *ClockPolicy { return &ClockPolicy{store: store} }

// ChooseVictim implements VictimPolicy.
func (c *ClockPolicy) ChooseVictim(candidates []mem.Frame) (mem.FrameID, error) {
	if len(candidates) == 0 {
		return 0, ErrNoVictim
	}
	// Sweep at most two full passes: the first pass clears usage bits, the
	// second finds an unused frame.
	for pass := 0; pass < 2*len(candidates); pass++ {
		f := candidates[c.hand%len(candidates)]
		c.hand++
		// Re-read the live usage bit; the snapshot may be stale.
		info, err := c.store.FrameInfo(f.ID)
		if err != nil || info.Free || info.Wired {
			continue
		}
		if info.Used {
			if err := c.store.ResetUsage(f.ID); err != nil {
				return 0, err
			}
			continue
		}
		return f.ID, nil
	}
	// Everything referenced recently: take the next candidate anyway.
	return candidates[c.hand%len(candidates)].ID, nil
}

// FIFOPolicy evicts the lowest-numbered candidate frame; simple and
// deterministic, used as the baseline comparator policy.
type FIFOPolicy struct{}

// ChooseVictim implements VictimPolicy.
func (FIFOPolicy) ChooseVictim(candidates []mem.Frame) (mem.FrameID, error) {
	if len(candidates) == 0 {
		return 0, ErrNoVictim
	}
	best := candidates[0].ID
	for _, f := range candidates[1:] {
		if f.ID < best {
			best = f.ID
		}
	}
	return best, nil
}

// FaultStats aggregates what the faulting processes experienced; the E5
// experiment compares these across the two designs.
type FaultStats struct {
	// Faults is the number of page faults handled.
	Faults int64 `json:"faults"`
	// WaitCycles is the total virtual time faulting processes spent from
	// fault to resolution.
	WaitCycles int64 `json:"wait_cycles"`
	// FaulterSteps counts the distinct page-control operations executed in
	// the faulting process itself (the paper's "complex series of steps").
	FaulterSteps int64 `json:"faulter_steps"`
	// FaulterEvictions counts evictions the faulting process had to
	// perform itself (always zero for the parallel design).
	FaulterEvictions int64 `json:"faulter_evictions"`
	// MaxCascade is the deepest eviction cascade a single fault triggered
	// in the faulting process.
	MaxCascade int `json:"max_cascade"`
	// IORetries counts transient backing-store I/O errors (mem.ErrIO)
	// absorbed by retry-with-backoff instead of failing the fault.
	IORetries int64 `json:"io_retries"`
}

// pagerMetrics holds the handles both page-control designs publish
// through: pagectl.faults, pagectl.wait_cycles, pagectl.io_retries. The
// zero value (all nil) means detached.
type pagerMetrics struct {
	faults     *metrics.Counter
	waitCycles *metrics.Counter
	ioRetries  *metrics.Counter
}

func (pm *pagerMetrics) resolve(reg *metrics.Registry) {
	if reg == nil {
		*pm = pagerMetrics{}
		return
	}
	pm.faults = reg.Counter("pagectl.faults")
	pm.waitCycles = reg.Counter("pagectl.wait_cycles")
	pm.ioRetries = reg.Counter("pagectl.io_retries")
}

func (pm *pagerMetrics) fault(wait int64) {
	if pm.faults != nil {
		pm.faults.Inc()
		pm.waitCycles.Add(wait)
	}
}

func (pm *pagerMetrics) ioRetry() {
	if pm.ioRetries != nil {
		pm.ioRetries.Inc()
	}
}

// ioRetryLimit bounds retry-with-backoff on transient backing-store I/O
// errors (mem.ErrIO): a fault is failed only after the limit is
// exhausted. ioRetryBackoff is the first retry's sleep in vcycles,
// doubled on each subsequent attempt.
const (
	ioRetryLimit   = 6
	ioRetryBackoff = 8
)

// Pager is the interface both designs implement.
type Pager interface {
	// Handle services a page fault on behalf of the faulting process
	// running in pc. It returns when the page is resident.
	Handle(pc *sched.ProcCtx, pf *machine.PageFault) error
	// Stats returns the accumulated fault statistics.
	Stats() FaultStats
}

// ForProcess adapts a Pager to machine.PageFaultHandler for one process
// context, so a Processor can deliver faults taken by simulated code.
func ForProcess(p Pager, pc *sched.ProcCtx) machine.PageFaultHandler {
	return machine.PageFaultHandlerFunc(func(pf *machine.PageFault) error {
		return p.Handle(pc, pf)
	})
}

// SequentialPager is the old Multics design: the entire eviction cascade
// runs synchronously in the faulting process.
type SequentialPager struct {
	store  *mem.Store
	policy VictimPolicy
	stats  FaultStats
	pm     pagerMetrics
	// cands is the reusable eviction-candidate buffer; see chooseVictim.
	cands []mem.Frame
}

// SetMetrics publishes fault handling into reg under pagectl.* names; nil
// detaches the pager.
func (s *SequentialPager) SetMetrics(reg *metrics.Registry) { s.pm.resolve(reg) }

// NewSequentialPager returns the old-design pager.
func NewSequentialPager(store *mem.Store, policy VictimPolicy) *SequentialPager {
	if policy == nil {
		policy = NewClockPolicy(store)
	}
	return &SequentialPager{store: store, policy: policy}
}

// Stats implements Pager.
func (s *SequentialPager) Stats() FaultStats { return s.stats }

// Handle implements Pager: fetch the page, performing however many
// evictions that requires, all in the faulting process.
func (s *SequentialPager) Handle(pc *sched.ProcCtx, pf *machine.PageFault) error {
	start := pc.Now()
	defer func() {
		s.stats.Faults++
		s.stats.WaitCycles += pc.Now() - start
		s.pm.fault(pc.Now() - start)
	}()
	pid := mem.PageID{SegUID: pf.SegTag, Index: pf.Page}
	cascade := 0
	ioAttempts := 0
	for {
		frame, lat, err := s.store.PageIn(pid)
		if err == nil {
			_ = frame
			s.stats.FaulterSteps++
			if lat > 0 {
				pc.Sleep(lat)
			}
			if cascade > s.stats.MaxCascade {
				s.stats.MaxCascade = cascade
			}
			return nil
		}
		if errors.Is(err, mem.ErrIO) {
			// Transient backing-store error: back off and retry; the store
			// is unchanged, so the page-in is safe to reissue.
			ioAttempts++
			if ioAttempts > ioRetryLimit {
				return fmt.Errorf("pagectl(sequential): page-in of %v: %d retries exhausted: %w", pid, ioRetryLimit, err)
			}
			s.stats.IORetries++
			s.pm.ioRetry()
			pc.Sleep(ioRetryBackoff << (ioAttempts - 1))
			continue
		}
		if !errors.Is(err, mem.ErrNoFreeFrame) {
			return fmt.Errorf("pagectl(sequential): page-in of %v: %w", pid, err)
		}
		// No free frame: the faulting process itself must make room.
		cascade++
		if err := s.evictOne(pc); err != nil {
			return fmt.Errorf("pagectl(sequential): making room for %v: %w", pid, err)
		}
	}
}

// maxEvictAttempts bounds the eviction retry loop: under heavy
// multiprogramming, resources a faulting process frees can be consumed by
// competing faulters while it sleeps on the transfer, so each step must be
// re-attempted — but a bound converts pathological starvation into an
// error rather than an endless loop.
const maxEvictAttempts = 64

// evictOne frees one primary-memory frame in the calling process,
// cascading to the bulk-store level when necessary — the paper's "complex
// series of steps", all executed by the process that merely wanted its
// page. Every sleep is a window in which a competing faulting process can
// steal what this one freed, hence the retry structure.
func (s *SequentialPager) evictOne(pc *sched.ProcCtx) error {
	for attempt := 0; attempt < maxEvictAttempts; attempt++ {
		victim, err := s.chooseVictim()
		if err != nil {
			return err
		}
		s.stats.FaulterSteps++
		_, lat, err := s.store.EvictToBulk(victim)
		if err == nil {
			s.stats.FaulterEvictions++
			pc.Sleep(lat)
			return nil
		}
		if !errors.Is(err, mem.ErrNoFreeBlock) {
			// The victim vanished while we were deciding (another faulter
			// evicted it): choose again.
			continue
		}
		// The bulk store is full too: move a bulk page to disk first.
		block, err := pickBulkVictim(s.store)
		if err != nil {
			return err
		}
		s.stats.FaulterSteps++
		lat2, err := s.store.BulkToDisk(block)
		if err != nil {
			// The block raced away; start over.
			continue
		}
		pc.Sleep(lat2)
		// Retry the whole cascade: the freed block may already be gone.
	}
	return errors.New("pagectl(sequential): eviction starved by competing faulters")
}

// chooseVictim runs the policy over the occupied, unwired frames, gathered
// into the pager's reusable buffer. Several faulting processes can be
// evicting at once, and a policy that blocks would let another one in
// mid-choice, so the buffer is detached while the policy borrows it: a
// concurrent caller finds nil and allocates its own, and the common path
// allocates nothing.
func (s *SequentialPager) chooseVictim() (mem.FrameID, error) {
	cands := s.store.AppendEvictable(s.cands[:0])
	s.cands = nil
	victim, err := s.policy.ChooseVictim(cands)
	s.cands = cands
	return victim, err
}

// pickBulkVictim selects an occupied bulk block to push to disk: the block
// holding the lowest-numbered page, which is deterministic and, because
// page-ins recycle blocks, approximates oldest-first.
func pickBulkVictim(store *mem.Store) (mem.BlockID, error) {
	b, ok := store.LowestBulkBlock()
	if !ok {
		return 0, errors.New("pagectl: bulk store reported full but no occupied block found")
	}
	return b, nil
}
