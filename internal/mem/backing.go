package mem

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Classified errors for segment references through a PagedBacking. They
// exist so the gate error taxonomy can bucket storage references without
// string matching: a stale reference to a deleted segment is a kernel-side
// failure, an out-of-range offset is the caller's bad argument.
var (
	// ErrSegmentGone reports a reference through a backing whose segment
	// has been deleted out from under it.
	ErrSegmentGone = errors.New("mem: segment deleted")
	// ErrOutOfRange reports an offset outside the segment's length.
	ErrOutOfRange = errors.New("mem: offset outside segment")
)

// PagedBacking adapts one segment of the Store to the machine.Backing
// interface. References to core-resident pages succeed directly; references
// to absent pages return *machine.PageFault so the processor can invoke page
// control and retry.
type PagedBacking struct {
	store *Store
	uid   uint64
}

var _ machine.Backing = (*PagedBacking)(nil)

// NewPagedBacking returns a backing for the segment uid, which must exist.
func NewPagedBacking(store *Store, uid uint64) (*PagedBacking, error) {
	if _, ok := store.SegmentLength(uid); !ok {
		return nil, fmt.Errorf("mem: no segment %#x", uid)
	}
	return &PagedBacking{store: store, uid: uid}, nil
}

// UID returns the segment unique ID this backing serves.
func (b *PagedBacking) UID() uint64 { return b.uid }

// ReadWord implements machine.Backing.
func (b *PagedBacking) ReadWord(off int) (uint64, error) {
	return b.touch(off, false, 0)
}

// WriteWord implements machine.Backing.
func (b *PagedBacking) WriteWord(off int, val uint64) error {
	_, err := b.touch(off, true, val)
	return err
}

// touch locates the page holding word off and reads or writes the word,
// all under one hold of the store lock, so the page cannot leave its frame
// between the two steps.
func (b *PagedBacking) touch(off int, write bool, val uint64) (uint64, error) {
	s := b.store
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.segs[b.uid]
	if !ok {
		return 0, fmt.Errorf("%w: segment %#x", ErrSegmentGone, b.uid)
	}
	if off < 0 || off >= sp.length {
		return 0, fmt.Errorf("%w: offset %d, segment %#x length %d", ErrOutOfRange, off, b.uid, sp.length)
	}
	page := off / s.cfg.PageWords
	loc, ok := sp.pages[page]
	if !ok || loc.Level != LevelCore {
		return 0, &machine.PageFault{Page: page, SegTag: b.uid}
	}
	return s.wordLocked(loc.Frame, off%s.cfg.PageWords, write, val)
}

// Length implements machine.Backing.
func (b *PagedBacking) Length() int {
	length, _ := b.store.SegmentLength(b.uid)
	return length
}
