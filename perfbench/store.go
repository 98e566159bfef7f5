package main

import (
	"repro/internal/blockstore"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// timedStore is the mem.BackingStore the benchmark boots every kernel
// over: a blockstore.Store on in-memory media, with a span around every
// method so the traced run can time the block layer from outside.
type timedStore struct {
	inner *blockstore.Store
	tr    *tracer
}

var _ mem.BackingStore = (*timedStore)(nil)

func newTimedStore() (*timedStore, error) {
	st, _, err := blockstore.Open(blockstore.Config{Media: blockstore.NewMemMedia()})
	if err != nil {
		return nil, err
	}
	return &timedStore{inner: st}, nil
}

// SetMetrics lets the kernel bind the inner store's blockstore.* counters
// to its registry at boot, exactly as it would the bare store.
func (s *timedStore) SetMetrics(reg *metrics.Registry) { s.inner.SetMetrics(reg) }

func (s *timedStore) span(name string) int32 { return s.tr.begin(name, 0, procRunning) }

func (s *timedStore) ReadBlock(pid mem.PageID) ([]uint64, error) {
	id := s.span("blockstore.ReadBlock")
	d, err := s.inner.ReadBlock(pid)
	s.tr.end(id, false)
	return d, err
}

func (s *timedStore) WriteBlock(pid mem.PageID, data []uint64) error {
	id := s.span("blockstore.WriteBlock")
	err := s.inner.WriteBlock(pid, data)
	s.tr.end(id, false)
	return err
}

func (s *timedStore) ReadBlocks(pids []mem.PageID) ([][]uint64, error) {
	id := s.span("blockstore.ReadBlocks")
	d, err := s.inner.ReadBlocks(pids)
	s.tr.end(id, false)
	return d, err
}

func (s *timedStore) WriteBlocks(writes []mem.BlockWrite) error {
	id := s.span("blockstore.WriteBlocks")
	err := s.inner.WriteBlocks(writes)
	s.tr.end(id, false)
	return err
}

func (s *timedStore) FreeBlock(pid mem.PageID) error {
	id := s.span("blockstore.FreeBlock")
	err := s.inner.FreeBlock(pid)
	s.tr.end(id, false)
	return err
}

func (s *timedStore) BlockIDs() []mem.PageID {
	id := s.span("blockstore.BlockIDs")
	ids := s.inner.BlockIDs()
	s.tr.end(id, false)
	return ids
}

func (s *timedStore) Sync() error {
	id := s.span("blockstore.Sync")
	err := s.inner.Sync()
	s.tr.end(id, false)
	return err
}

func (s *timedStore) Checkpoint(manifest []byte) error {
	id := s.span("blockstore.Checkpoint")
	err := s.inner.Checkpoint(manifest)
	s.tr.end(id, false)
	return err
}

func (s *timedStore) Manifest() ([]byte, error) { return s.inner.Manifest() }

func (s *timedStore) CheckpointBlock(pid mem.PageID) ([]uint64, error) {
	return s.inner.CheckpointBlock(pid)
}

func (s *timedStore) RevertToCheckpoint() error { return s.inner.RevertToCheckpoint() }

func (s *timedStore) Close() error { return s.inner.Close() }
