package linker

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Environment is what a linker needs from the rest of the system: the
// ability to find a segment by name under the process's search rules and to
// make it known (initiate it) in the process's address space. The baseline
// kernel supplies an environment that does both inside ring 0; the
// post-removal system supplies one built on the narrow segment-number
// kernel interface, with the search itself running in the user ring.
type Environment interface {
	// LookupSegment finds name via the search rules and returns the UID.
	LookupSegment(name string) (uint64, error)
	// Initiate makes uid known to the process, returning the segment
	// number through which it is addressable.
	Initiate(uid uint64) (machine.SegNo, error)
}

// ErrSegmentNotFound is returned when no search rule matches the name.
var ErrSegmentNotFound = errors.New("linker: segment not found in search rules")

// Linker resolves linkage faults. It is configuration-neutral: Ring records
// where this instance conceptually executes, which the audit experiments
// use to classify the severity of a malfunction.
type Linker struct {
	env  Environment
	ring machine.Ring
}

var _ machine.LinkageFaultHandler = (*Linker)(nil)

// New returns a linker over env that executes in ring.
func New(env Environment, ring machine.Ring) *Linker {
	return &Linker{env: env, ring: ring}
}

// Ring returns the ring this linker instance executes in.
func (l *Linker) Ring() machine.Ring { return l.ring }

// HandleLinkageFault implements machine.LinkageFaultHandler: find the
// segment, initiate it, parse its symbol table, return the snapped target.
// A malstructured table fails with ErrCorruptSymtab or ErrBadMagic; when
// the linker runs in ring 0 each such failure was a malfunction of
// privileged code — the vulnerability the removal project eliminated.
func (l *Linker) HandleLinkageFault(ctx *machine.ExecContext, ref machine.LinkRef) (machine.LinkTarget, error) {
	uid, err := l.env.LookupSegment(ref.SegName)
	if err != nil {
		return machine.LinkTarget{}, fmt.Errorf("%w: %q: %v", ErrSegmentNotFound, ref.SegName, err)
	}
	seg, err := l.env.Initiate(uid)
	if err != nil {
		return machine.LinkTarget{}, fmt.Errorf("linker: initiating %q (uid %#x): %w", ref.SegName, uid, err)
	}
	// Read the symbol table THROUGH the protection checks of the ring the
	// linker runs in. A ring-0 linker reads with full privilege — which is
	// precisely what makes feeding it a malstructured table dangerous.
	read := func(off int) (uint64, error) { return ctx.Load(seg, off) }
	entry, err := FindEntry(read, ref.EntryName)
	if err != nil {
		return machine.LinkTarget{}, fmt.Errorf("linker: resolving %v: %w", ref, err)
	}
	return machine.LinkTarget{Seg: seg, Entry: entry}, nil
}

// SearchRules is a simple Environment helper used by both configurations:
// an ordered list of lookup functions, one per search directory.
type SearchRules struct {
	// Dirs is the ordered list of (name -> UID) lookup functions.
	Dirs []func(name string) (uint64, bool)
	// InitiateFn makes a UID known.
	InitiateFn func(uid uint64) (machine.SegNo, error)
}

var _ Environment = (*SearchRules)(nil)

// LookupSegment implements Environment.
func (s *SearchRules) LookupSegment(name string) (uint64, error) {
	for _, dir := range s.Dirs {
		if uid, ok := dir(name); ok {
			return uid, nil
		}
	}
	return 0, ErrSegmentNotFound
}

// Initiate implements Environment.
func (s *SearchRules) Initiate(uid uint64) (machine.SegNo, error) {
	if s.InitiateFn == nil {
		return 0, errors.New("linker: no initiate function configured")
	}
	return s.InitiateFn(uid)
}
