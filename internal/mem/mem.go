// Package mem simulates the three-level Multics memory hierarchy the paper's
// page-control redesign moves pages among: primary memory (core), the bulk
// store (paging drum), and disk. The package is passive storage with latency
// accounting; process structure — who performs a transfer and who waits for
// it — belongs to the page-control implementations in internal/pagectl.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Level identifies one level of the memory hierarchy.
type Level int

// Hierarchy levels. LevelNone marks a page that has never been referenced:
// it materializes zero-filled on first use.
const (
	LevelNone Level = iota
	LevelCore
	LevelBulk
	LevelDisk
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "unmaterialized"
	case LevelCore:
		return "core"
	case LevelBulk:
		return "bulk"
	case LevelDisk:
		return "disk"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// PageID names one page of one segment, globally: the segment's unique ID
// plus the page index within the segment.
type PageID struct {
	SegUID uint64
	Index  int
}

func (p PageID) String() string { return fmt.Sprintf("%#x.%d", p.SegUID, p.Index) }

// FrameID indexes a primary-memory frame.
type FrameID int

// BlockID indexes a bulk-store block.
type BlockID int

// Location records where a page currently lives. Pages live at exactly one
// level at a time in this model.
type Location struct {
	Level Level
	Frame FrameID // valid when Level == LevelCore
	Block BlockID // valid when Level == LevelBulk
}

// Config sizes the hierarchy and sets transfer latencies in virtual cycles.
type Config struct {
	// PageWords is the page size in words.
	PageWords int
	// CoreFrames is the number of primary-memory page frames.
	CoreFrames int
	// BulkBlocks is the number of bulk-store blocks.
	BulkBlocks int
	// BulkRead/BulkWrite are bulk-store transfer latencies.
	BulkRead, BulkWrite int64
	// DiskRead/DiskWrite are disk transfer latencies.
	DiskRead, DiskWrite int64
	// Metrics, when set, is the registry the store publishes its
	// transfer and contention counters into (mem.* names). When nil the
	// store uses a private registry so Stats keeps working standalone.
	Metrics *metrics.Registry
	// Backing, when set, is the durable block layer under the disk
	// level. When nil the store uses a fresh volatile MemStore — the
	// historical behavior.
	Backing BackingStore
}

// DefaultConfig returns a hierarchy sized for the experiments: a small core
// over a larger bulk store over unbounded disk, with disk roughly 20x slower
// than the bulk store.
func DefaultConfig() Config {
	return Config{
		PageWords:  64,
		CoreFrames: 32,
		BulkBlocks: 128,
		BulkRead:   100,
		BulkWrite:  100,
		DiskRead:   2000,
		DiskWrite:  2000,
	}
}

func (c Config) validate() error {
	if c.PageWords <= 0 {
		return errors.New("mem: PageWords must be positive")
	}
	if c.CoreFrames <= 0 {
		return errors.New("mem: CoreFrames must be positive")
	}
	if c.BulkBlocks <= 0 {
		return errors.New("mem: BulkBlocks must be positive")
	}
	if c.BulkRead < 0 || c.BulkWrite < 0 || c.DiskRead < 0 || c.DiskWrite < 0 {
		return errors.New("mem: latencies must be non-negative")
	}
	return nil
}

// TransferStats counts page movements between levels.
type TransferStats struct {
	BulkToCore int64 `json:"bulk_to_core"`
	DiskToCore int64 `json:"disk_to_core"`
	CoreToBulk int64 `json:"core_to_bulk"`
	CoreToDisk int64 `json:"core_to_disk"`
	BulkToDisk int64 `json:"bulk_to_disk"`
	DiskToBulk int64 `json:"disk_to_bulk"`
	ZeroFills  int64 `json:"zero_fills"`
}

// ContentionStats reports store-level contention: how often an allocation
// had to steal a free frame or block from another shard's free list, either
// because its home shard was drained by contending allocators or because the
// free population is unbalanced.
type ContentionStats struct {
	FrameSteals int64 `json:"frame_steals"`
	BlockSteals int64 `json:"block_steals"`
}

// Counters is the historical name of ContentionStats.
//
// Deprecated: use ContentionStats.
type Counters = ContentionStats

type frame struct {
	free     bool
	pid      PageID
	data     []uint64
	used     bool // referenced since last usage reset
	modified bool
	wired    bool // never evictable (kernel pages)
}

type block struct {
	free bool
	pid  PageID
	data []uint64
}

// Lock-striping geometry. Free lists are sharded so concurrent allocators
// rarely meet; frame and block metadata is striped so word access and
// transfers on different frames never share a lock.
const (
	numShards  = 8
	shardMask  = numShards - 1
	numStripes = 64
	stripeMask = numStripes - 1
)

// freeShard is one shard of a free list (LIFO within the shard).
type freeShard struct {
	mu  sync.Mutex
	ids []int
}

// Store is the whole simulated memory hierarchy plus the page tables of all
// segments. It is safe for concurrent use: page-table operations serialize
// per segment, frame/block metadata is lock-striped, the free lists are
// sharded, and transfer statistics are atomics — there is no global lock.
//
// Lock order (outermost first): segs map -> one segment's page table -> one
// frame/block stripe -> free-list shard or the backing store's own lock. No
// operation ever holds two stripes at once; a transfer that touches both a
// frame and a block finishes with one before locking the other.
type Store struct {
	cfg Config

	frames  []frame
	frameMu [numStripes]sync.Mutex
	blocks  []block
	blockMu [numStripes]sync.Mutex

	// backing is the durable block layer serving LevelDisk. It may also
	// hold stale copies of pages whose live location is core or bulk —
	// checkpoint flushes write through without moving pages, exactly as
	// a real disk copy goes stale when the page is later dirtied in core.
	backing BackingStore

	// segMu guards the segs map only; each SegmentPages has its own lock.
	segMu sync.RWMutex
	segs  map[uint64]*SegmentPages

	freeFrames [numShards]freeShard
	freeBlocks [numShards]freeShard

	// Transfer and contention counts live in the unified metrics
	// registry; these are pre-resolved handles, so the hot path is the
	// same single atomic add it was when the fields were raw atomics.
	bulkToCore, diskToCore   *metrics.Counter
	coreToBulk, coreToDisk   *metrics.Counter
	bulkToDisk, diskToBulk   *metrics.Counter
	zeroFills                *metrics.Counter
	frameSteals, blockSteals *metrics.Counter
	ckptFlushes              *metrics.Counter

	// hook, when set, interposes on every backing-store transfer; see
	// faulthook.go.
	hook atomic.Pointer[faultHookBox]
}

// SegmentPages is the page table of one segment. All access to it goes
// through the owning Store, which serializes page transitions per segment.
type SegmentPages struct {
	UID uint64

	mu      sync.Mutex
	length  int // length in words
	pages   map[int]Location
	deleted bool
}

// Length returns the segment length in words.
func (s *SegmentPages) Length() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.length
}

// NewStore returns an empty hierarchy.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	backing := cfg.Backing
	if backing == nil {
		backing = NewMemStore()
	}
	st := &Store{
		cfg:         cfg,
		frames:      make([]frame, cfg.CoreFrames),
		blocks:      make([]block, cfg.BulkBlocks),
		backing:     backing,
		segs:        make(map[uint64]*SegmentPages),
		bulkToCore:  reg.Counter("mem.bulk_to_core"),
		diskToCore:  reg.Counter("mem.disk_to_core"),
		coreToBulk:  reg.Counter("mem.core_to_bulk"),
		coreToDisk:  reg.Counter("mem.core_to_disk"),
		bulkToDisk:  reg.Counter("mem.bulk_to_disk"),
		diskToBulk:  reg.Counter("mem.disk_to_bulk"),
		zeroFills:   reg.Counter("mem.zero_fills"),
		frameSteals: reg.Counter("mem.frame_steals"),
		blockSteals: reg.Counter("mem.block_steals"),
		ckptFlushes: reg.Counter("mem.checkpoint_flushes"),
	}
	for i := range st.frames {
		st.frames[i].free = true
		sh := &st.freeFrames[i&shardMask]
		sh.ids = append(sh.ids, i)
	}
	for i := range st.blocks {
		st.blocks[i].free = true
		sh := &st.freeBlocks[i&shardMask]
		sh.ids = append(sh.ids, i)
	}
	return st, nil
}

// Config returns the hierarchy configuration.
func (s *Store) Config() Config { return s.cfg }

// Backing returns the durable block layer serving the disk level.
func (s *Store) Backing() BackingStore { return s.backing }

// Stats returns the transfer counts so far.
func (s *Store) Stats() TransferStats {
	return TransferStats{
		BulkToCore: s.bulkToCore.Value(),
		DiskToCore: s.diskToCore.Value(),
		CoreToBulk: s.coreToBulk.Value(),
		CoreToDisk: s.coreToDisk.Value(),
		BulkToDisk: s.bulkToDisk.Value(),
		DiskToBulk: s.diskToBulk.Value(),
		ZeroFills:  s.zeroFills.Value(),
	}
}

// ContentionCounters returns the free-list steal counts.
func (s *Store) ContentionCounters() ContentionStats {
	return ContentionStats{
		FrameSteals: s.frameSteals.Value(),
		BlockSteals: s.blockSteals.Value(),
	}
}

// seg returns the page table for uid under the map lock only.
func (s *Store) seg(uid uint64) (*SegmentPages, bool) {
	s.segMu.RLock()
	sp, ok := s.segs[uid]
	s.segMu.RUnlock()
	return sp, ok
}

// CreateSegment registers a segment of length words, with all pages
// unmaterialized. It fails if the UID is already in use.
func (s *Store) CreateSegment(uid uint64, length int) (*SegmentPages, error) {
	if length < 0 {
		return nil, fmt.Errorf("mem: negative segment length %d", length)
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if _, ok := s.segs[uid]; ok {
		return nil, fmt.Errorf("mem: segment %#x already exists", uid)
	}
	sp := &SegmentPages{UID: uid, length: length, pages: make(map[int]Location)}
	s.segs[uid] = sp
	return sp, nil
}

// Segment returns the page table for uid.
func (s *Store) Segment(uid uint64) (*SegmentPages, bool) {
	return s.seg(uid)
}

// SegmentUIDs returns the UIDs of all registered segments, sorted.
func (s *Store) SegmentUIDs() []uint64 {
	s.segMu.RLock()
	out := make([]uint64, 0, len(s.segs))
	for uid := range s.segs {
		out = append(out, uid)
	}
	s.segMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeleteSegment releases every page of uid at every level.
func (s *Store) DeleteSegment(uid uint64) error {
	s.segMu.Lock()
	sp, ok := s.segs[uid]
	if !ok {
		s.segMu.Unlock()
		return fmt.Errorf("mem: segment %#x does not exist", uid)
	}
	delete(s.segs, uid)
	s.segMu.Unlock()

	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.deleted = true
	for idx, loc := range sp.pages {
		s.releasePage(PageID{SegUID: uid, Index: idx}, loc)
		delete(sp.pages, idx)
	}
	return nil
}

// releasePage returns a page's storage to the free pools. The caller holds
// the owning segment's lock, which pins the location.
func (s *Store) releasePage(pid PageID, loc Location) {
	switch loc.Level {
	case LevelCore:
		s.releaseFrame(loc.Frame)
	case LevelBulk:
		s.releaseBlock(loc.Block)
	}
	// Drop the durable copy regardless of the live level: a checkpoint
	// flush may have left one behind a core- or bulk-resident page. A
	// failed free only strands a stale block — restore trusts the
	// manifest, not the live map — so it does not abort the release.
	_ = s.backing.FreeBlock(pid)
}

// SetLength grows or shrinks a segment. Shrinking releases pages beyond the
// new length.
func (s *Store) SetLength(uid uint64, length int) error {
	sp, ok := s.seg(uid)
	if !ok {
		return fmt.Errorf("mem: segment %#x does not exist", uid)
	}
	if length < 0 {
		return fmt.Errorf("mem: negative segment length %d", length)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return fmt.Errorf("mem: segment %#x does not exist", uid)
	}
	lastPage := (length + s.cfg.PageWords - 1) / s.cfg.PageWords
	for idx, loc := range sp.pages {
		if idx < lastPage {
			continue
		}
		s.releasePage(PageID{SegUID: uid, Index: idx}, loc)
		delete(sp.pages, idx)
	}
	sp.length = length
	return nil
}

// Discard releases one page of a segment at whatever level it lives,
// without shrinking the segment: a later reference materializes the page
// again, zero-filled. It is the primitive behind the infinite I/O buffer's
// reclamation of consumed pages — the buffer only ever grows logically, but
// fully-consumed pages return their storage to the standard free pools.
// Discarding an unmaterialized page is a no-op.
func (s *Store) Discard(pid PageID) error {
	sp, ok := s.seg(pid.SegUID)
	if !ok {
		return fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	loc, ok := sp.pages[pid.Index]
	if !ok {
		return nil
	}
	s.releasePage(pid, loc)
	delete(sp.pages, pid.Index)
	return nil
}

// Locate returns where a page of uid currently lives.
func (s *Store) Locate(pid PageID) (Location, error) {
	sp, ok := s.seg(pid.SegUID)
	if !ok {
		return Location{}, fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	loc, ok := sp.pages[pid.Index]
	if !ok {
		return Location{Level: LevelNone}, nil
	}
	return loc, nil
}

// FreeFrameCount returns the number of free primary-memory frames.
func (s *Store) FreeFrameCount() int {
	n := 0
	for i := range s.freeFrames {
		sh := &s.freeFrames[i]
		sh.mu.Lock()
		n += len(sh.ids)
		sh.mu.Unlock()
	}
	return n
}

// FreeBlockCount returns the number of free bulk-store blocks.
func (s *Store) FreeBlockCount() int {
	n := 0
	for i := range s.freeBlocks {
		sh := &s.freeBlocks[i]
		sh.mu.Lock()
		n += len(sh.ids)
		sh.mu.Unlock()
	}
	return n
}

// homeShard spreads allocations for different pages over the shards while
// keeping the choice deterministic for a given page.
func homeShard(pid PageID) int {
	return int((pid.SegUID*31 + uint64(pid.Index)) & shardMask)
}

// takeFree pops a free ID, starting at the page's home shard and stealing
// from the others in deterministic order when it is empty.
func takeFree(shards *[numShards]freeShard, home int, steals *metrics.Counter) (int, bool) {
	for i := 0; i < numShards; i++ {
		sh := &shards[(home+i)&shardMask]
		sh.mu.Lock()
		if n := len(sh.ids); n > 0 {
			id := sh.ids[n-1]
			sh.ids = sh.ids[:n-1]
			sh.mu.Unlock()
			if i != 0 {
				steals.Add(1)
			}
			return id, true
		}
		sh.mu.Unlock()
	}
	return 0, false
}

func putFree(shards *[numShards]freeShard, id int) {
	sh := &shards[id&shardMask]
	sh.mu.Lock()
	sh.ids = append(sh.ids, id)
	sh.mu.Unlock()
}

func (s *Store) takeFrame(pid PageID) (FrameID, bool) {
	id, ok := takeFree(&s.freeFrames, homeShard(pid), s.frameSteals)
	return FrameID(id), ok
}

func (s *Store) takeBlock(pid PageID) (BlockID, bool) {
	id, ok := takeFree(&s.freeBlocks, homeShard(pid), s.blockSteals)
	return BlockID(id), ok
}

// releaseFrame clears frame metadata and returns the frame to its free-list
// shard. The frame keeps its page memory: the page is gone, so nothing else
// can hold the slice, and the next zero-fill of this frame clears and reuses
// it (installZero). The caller must not hold the frame's stripe.
func (s *Store) releaseFrame(f FrameID) {
	s.frameMu[int(f)&stripeMask].Lock()
	fr := &s.frames[f]
	if fr.free {
		s.frameMu[int(f)&stripeMask].Unlock()
		return
	}
	*fr = frame{free: true, data: fr.data}
	s.frameMu[int(f)&stripeMask].Unlock()
	putFree(&s.freeFrames, int(f))
}

// releaseBlock is the bulk-store analogue of releaseFrame.
func (s *Store) releaseBlock(b BlockID) {
	s.blockMu[int(b)&stripeMask].Lock()
	bl := &s.blocks[b]
	if bl.free {
		s.blockMu[int(b)&stripeMask].Unlock()
		return
	}
	*bl = block{free: true}
	s.blockMu[int(b)&stripeMask].Unlock()
	putFree(&s.freeBlocks, int(b))
}

// ErrNoFreeFrame is returned when a page-in needs a core frame and none is
// free. Page control reacts by freeing one (the design under test).
var ErrNoFreeFrame = errors.New("mem: no free primary memory frame")

// ErrNoFreeBlock is the bulk-store analogue of ErrNoFreeFrame.
var ErrNoFreeBlock = errors.New("mem: no free bulk store block")

// ErrBusy is returned when a frame or block changed state between the
// caller's observation and the transfer — a concurrent operation raced it
// away (evicted it, discarded it, or reused it for another page). Page
// control reacts by choosing another victim.
var ErrBusy = errors.New("mem: frame or block changed state during transfer")

// MaterializeZero brings an unmaterialized page into core as zeros. It
// consumes a free frame and charges no transfer latency (zero-fill is a
// core-speed operation).
func (s *Store) MaterializeZero(pid PageID) (FrameID, error) {
	sp, ok := s.seg(pid.SegUID)
	if !ok {
		return 0, fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return 0, fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	return s.materializeZeroLocked(sp, pid)
}

// materializeZeroLocked is MaterializeZero with the segment lock held.
func (s *Store) materializeZeroLocked(sp *SegmentPages, pid PageID) (FrameID, error) {
	if loc, ok := sp.pages[pid.Index]; ok {
		return 0, fmt.Errorf("mem: page %v already materialized at %v", pid, loc.Level)
	}
	f, ok := s.takeFrame(pid)
	if !ok {
		return 0, ErrNoFreeFrame
	}
	s.installZero(f, pid)
	sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
	s.zeroFills.Inc()
	return f, nil
}

// installZero publishes a zero-filled page into a freshly allocated frame,
// reusing the page memory a released frame kept. The clear is the
// object-reuse guarantee: a recycled frame never shows its last owner's
// words.
func (s *Store) installZero(f FrameID, pid PageID) {
	s.frameMu[int(f)&stripeMask].Lock()
	fr := &s.frames[f]
	data := fr.data
	if len(data) == s.cfg.PageWords {
		clear(data)
	} else {
		data = make([]uint64, s.cfg.PageWords)
	}
	*fr = frame{pid: pid, data: data, used: true}
	s.frameMu[int(f)&stripeMask].Unlock()
}

// installFrame publishes page data into a freshly allocated frame.
func (s *Store) installFrame(f FrameID, pid PageID, data []uint64) {
	s.frameMu[int(f)&stripeMask].Lock()
	s.frames[f] = frame{pid: pid, data: data, used: true}
	s.frameMu[int(f)&stripeMask].Unlock()
}

// PageIn transfers a page from bulk or disk into a free core frame and
// returns the frame plus the transfer latency charged to whoever waited.
func (s *Store) PageIn(pid PageID) (FrameID, int64, error) {
	sp, ok := s.seg(pid.SegUID)
	if !ok {
		return 0, 0, fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return 0, 0, fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	return s.pageInLocked(sp, pid)
}

// pageInLocked is PageIn with the segment lock held. A core-resident page
// costs nothing and never consults the fault hook.
func (s *Store) pageInLocked(sp *SegmentPages, pid PageID) (FrameID, int64, error) {
	loc, ok := sp.pages[pid.Index]
	if !ok {
		if err := s.checkIO(OpMaterialize, pid); err != nil {
			return 0, 0, err
		}
		f, err := s.materializeZeroLocked(sp, pid)
		return f, 0, err
	}
	switch loc.Level {
	case LevelCore:
		return loc.Frame, 0, nil
	case LevelBulk:
		if err := s.checkIO(OpBulkRead, pid); err != nil {
			return 0, 0, err
		}
		f, ok := s.takeFrame(pid)
		if !ok {
			return 0, 0, ErrNoFreeFrame
		}
		// Pull the data out and free the block under its own stripe, then
		// fill the frame — never two stripes at once.
		bi := int(loc.Block) & stripeMask
		s.blockMu[bi].Lock()
		data := s.blocks[loc.Block].data
		s.blocks[loc.Block] = block{free: true}
		s.blockMu[bi].Unlock()
		putFree(&s.freeBlocks, int(loc.Block))
		s.installFrame(f, pid, data)
		sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
		s.bulkToCore.Inc()
		return f, s.cfg.BulkRead, nil
	case LevelDisk:
		if err := s.checkIO(OpDiskRead, pid); err != nil {
			return 0, 0, err
		}
		f, ok := s.takeFrame(pid)
		if !ok {
			return 0, 0, ErrNoFreeFrame
		}
		data, err := s.backing.ReadBlock(pid)
		if err != nil {
			putFree(&s.freeFrames, int(f))
			return 0, 0, fmt.Errorf("mem: disk read of %v: %w", pid, err)
		}
		s.installFrame(f, pid, data)
		sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
		s.diskToCore.Inc()
		return f, s.cfg.DiskRead, nil
	default:
		return 0, 0, fmt.Errorf("mem: page %v in unexpected state %v", pid, loc.Level)
	}
}

// claimFrameForEviction validates that frame f is still occupied, unwired,
// and (on the second look) still holds the page first observed, then strips
// it and returns the page data. The caller holds the owning segment's lock
// on the second look, so the page cannot move concurrently.
func (s *Store) peekFrame(f FrameID) (PageID, error) {
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	defer s.frameMu[fi].Unlock()
	fr := &s.frames[f]
	if fr.free {
		return PageID{}, fmt.Errorf("mem: frame %d is free", f)
	}
	if fr.wired {
		return PageID{}, fmt.Errorf("mem: frame %d is wired", f)
	}
	return fr.pid, nil
}

// stripFrame re-verifies frame f still holds pid and is evictable, then
// frees it and returns the page data. The data leaves with the page (to a
// bulk block or the backing store), so the freed frame keeps no slice.
// Caller holds the segment lock of pid's segment.
func (s *Store) stripFrame(f FrameID, pid PageID) ([]uint64, error) {
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	fr := &s.frames[f]
	if fr.free || fr.wired || fr.pid != pid {
		s.frameMu[fi].Unlock()
		return nil, fmt.Errorf("%w (frame %d)", ErrBusy, f)
	}
	data := fr.data
	*fr = frame{free: true}
	s.frameMu[fi].Unlock()
	putFree(&s.freeFrames, int(f))
	return data, nil
}

// evictTarget resolves the segment a frame's page belongs to. A missing
// segment means a concurrent delete won the race.
func (s *Store) evictTarget(pid PageID) (*SegmentPages, error) {
	sp, ok := s.seg(pid.SegUID)
	if !ok {
		return nil, fmt.Errorf("%w (segment %#x deleted)", ErrBusy, pid.SegUID)
	}
	return sp, nil
}

// EvictToBulk moves the page in frame f to a free bulk-store block,
// returning the block and the latency.
func (s *Store) EvictToBulk(f FrameID) (BlockID, int64, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return 0, 0, fmt.Errorf("mem: frame %d out of range", f)
	}
	pid, err := s.peekFrame(f)
	if err != nil {
		return 0, 0, err
	}
	sp, err := s.evictTarget(pid)
	if err != nil {
		return 0, 0, err
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return 0, 0, fmt.Errorf("%w (segment %#x deleted)", ErrBusy, pid.SegUID)
	}
	if err := s.checkIO(OpBulkWrite, pid); err != nil {
		return 0, 0, err
	}
	b, ok := s.takeBlock(pid)
	if !ok {
		return 0, 0, ErrNoFreeBlock
	}
	data, err := s.stripFrame(f, pid)
	if err != nil {
		putFree(&s.freeBlocks, int(b))
		return 0, 0, err
	}
	s.pageOut(OpBulkWrite, pid, data)
	bi := int(b) & stripeMask
	s.blockMu[bi].Lock()
	s.blocks[b] = block{pid: pid, data: data}
	s.blockMu[bi].Unlock()
	sp.pages[pid.Index] = Location{Level: LevelBulk, Block: b}
	s.coreToBulk.Inc()
	return b, s.cfg.BulkWrite, nil
}

// EvictToDisk moves the page in frame f directly to disk.
func (s *Store) EvictToDisk(f FrameID) (int64, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return 0, fmt.Errorf("mem: frame %d out of range", f)
	}
	pid, err := s.peekFrame(f)
	if err != nil {
		return 0, err
	}
	sp, err := s.evictTarget(pid)
	if err != nil {
		return 0, err
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return 0, fmt.Errorf("%w (segment %#x deleted)", ErrBusy, pid.SegUID)
	}
	if err := s.checkIO(OpDiskWrite, pid); err != nil {
		return 0, err
	}
	data, err := s.stripFrame(f, pid)
	if err != nil {
		return 0, err
	}
	s.pageOut(OpDiskWrite, pid, data)
	if err := s.backing.WriteBlock(pid, data); err != nil {
		s.reinstatePage(sp, pid, data)
		return 0, fmt.Errorf("mem: disk write of %v: %w", pid, err)
	}
	sp.pages[pid.Index] = Location{Level: LevelDisk}
	s.coreToDisk.Inc()
	return s.cfg.DiskWrite, nil
}

// reinstatePage puts a page whose frame or block was already stripped back
// into core after the backing store refused the write. If no frame is free
// the page reverts to unmaterialized — the data is gone, which is exactly
// what a device that fails mid-write does; the caller's error says so.
func (s *Store) reinstatePage(sp *SegmentPages, pid PageID, data []uint64) {
	if f, ok := s.takeFrame(pid); ok {
		s.installFrame(f, pid, data)
		sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
		return
	}
	delete(sp.pages, pid.Index)
}

// BulkToDisk moves the page in bulk block b to disk. In the real system
// this passed through primary memory; the latency charged reflects a bulk
// read plus a disk write.
func (s *Store) BulkToDisk(b BlockID) (int64, error) {
	if int(b) < 0 || int(b) >= len(s.blocks) {
		return 0, fmt.Errorf("mem: block %d out of range", b)
	}
	bi := int(b) & stripeMask
	s.blockMu[bi].Lock()
	bl := &s.blocks[b]
	if bl.free {
		s.blockMu[bi].Unlock()
		return 0, fmt.Errorf("mem: block %d is free", b)
	}
	pid := bl.pid
	s.blockMu[bi].Unlock()

	sp, err := s.evictTarget(pid)
	if err != nil {
		return 0, err
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return 0, fmt.Errorf("%w (segment %#x deleted)", ErrBusy, pid.SegUID)
	}
	if err := s.checkIO(OpBulkToDisk, pid); err != nil {
		return 0, err
	}
	s.blockMu[bi].Lock()
	bl = &s.blocks[b]
	if bl.free || bl.pid != pid {
		s.blockMu[bi].Unlock()
		return 0, fmt.Errorf("%w (block %d)", ErrBusy, b)
	}
	data := bl.data
	*bl = block{free: true}
	s.blockMu[bi].Unlock()
	putFree(&s.freeBlocks, int(b))

	s.pageOut(OpBulkToDisk, pid, data)
	if err := s.backing.WriteBlock(pid, data); err != nil {
		s.reinstatePage(sp, pid, data)
		return 0, fmt.Errorf("mem: disk write of %v: %w", pid, err)
	}
	sp.pages[pid.Index] = Location{Level: LevelDisk}
	s.bulkToDisk.Inc()
	return s.cfg.BulkRead + s.cfg.DiskWrite, nil
}

// Frame gives page-control read access to frame metadata.
type Frame struct {
	ID       FrameID
	Free     bool
	PID      PageID
	Used     bool
	Modified bool
	Wired    bool
}

// FrameInfo returns the metadata of frame f.
func (s *Store) FrameInfo(f FrameID) (Frame, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return Frame{}, fmt.Errorf("mem: frame %d out of range", f)
	}
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	defer s.frameMu[fi].Unlock()
	fr := &s.frames[f]
	return Frame{ID: f, Free: fr.free, PID: fr.pid, Used: fr.used, Modified: fr.modified, Wired: fr.wired}, nil
}

// Frames returns metadata for every frame, for replacement policies. The
// snapshot is per-frame consistent, not globally atomic.
func (s *Store) Frames() []Frame {
	out := make([]Frame, len(s.frames))
	for i := range s.frames {
		fi := i & stripeMask
		s.frameMu[fi].Lock()
		fr := &s.frames[i]
		out[i] = Frame{ID: FrameID(i), Free: fr.free, PID: fr.pid, Used: fr.used, Modified: fr.modified, Wired: fr.wired}
		s.frameMu[fi].Unlock()
	}
	return out
}

// AppendEvictable appends the occupied, unwired frames to dst in frame-ID
// order and returns the extended slice: the replacement candidates, without
// copying the whole frame table. Like Frames, the result is per-frame
// consistent, not globally atomic.
func (s *Store) AppendEvictable(dst []Frame) []Frame {
	for i := range s.frames {
		fi := i & stripeMask
		s.frameMu[fi].Lock()
		fr := &s.frames[i]
		if !fr.free && !fr.wired {
			dst = append(dst, Frame{ID: FrameID(i), PID: fr.pid, Used: fr.used, Modified: fr.modified})
		}
		s.frameMu[fi].Unlock()
	}
	return dst
}

// Block gives page-control read access to bulk-store block metadata.
type Block struct {
	ID   BlockID
	Free bool
	PID  PageID
}

// Blocks returns metadata for every bulk-store block. The snapshot is
// per-block consistent, not globally atomic.
func (s *Store) Blocks() []Block {
	out := make([]Block, len(s.blocks))
	for i := range s.blocks {
		bi := i & stripeMask
		s.blockMu[bi].Lock()
		bl := &s.blocks[i]
		out[i] = Block{ID: BlockID(i), Free: bl.free, PID: bl.pid}
		s.blockMu[bi].Unlock()
	}
	return out
}

// LowestBulkBlock returns the occupied bulk-store block holding the lowest
// (SegUID, Index) page, scanning the block table in place; ties go to the
// lowest block ID. ok is false when every block is free. Like Blocks, the
// scan is per-block consistent, not globally atomic.
func (s *Store) LowestBulkBlock() (id BlockID, ok bool) {
	var best PageID
	for i := range s.blocks {
		bi := i & stripeMask
		s.blockMu[bi].Lock()
		bl := &s.blocks[i]
		if !bl.free && (!ok || bl.pid.SegUID < best.SegUID ||
			(bl.pid.SegUID == best.SegUID && bl.pid.Index < best.Index)) {
			id, best, ok = BlockID(i), bl.pid, true
		}
		s.blockMu[bi].Unlock()
	}
	return id, ok
}

// ResetUsage clears the referenced bit of frame f (clock-algorithm support).
func (s *Store) ResetUsage(f FrameID) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: frame %d out of range", f)
	}
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	s.frames[f].used = false
	s.frameMu[fi].Unlock()
	return nil
}

// Wire pins the page in frame f into core (kernel pages).
func (s *Store) Wire(f FrameID, wired bool) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: frame %d out of range", f)
	}
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	defer s.frameMu[fi].Unlock()
	if s.frames[f].free {
		return fmt.Errorf("mem: cannot wire free frame %d", f)
	}
	s.frames[f].wired = wired
	return nil
}

// ReadWord reads a word from a core-resident page.
func (s *Store) ReadWord(f FrameID, off int) (uint64, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return 0, fmt.Errorf("mem: read of invalid frame %d", f)
	}
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	defer s.frameMu[fi].Unlock()
	fr := &s.frames[f]
	if fr.free {
		return 0, fmt.Errorf("mem: read of invalid frame %d", f)
	}
	if off < 0 || off >= len(fr.data) {
		return 0, fmt.Errorf("mem: frame offset %d out of range", off)
	}
	fr.used = true
	return fr.data[off], nil
}

// WriteWord writes a word to a core-resident page.
func (s *Store) WriteWord(f FrameID, off int, val uint64) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: write of invalid frame %d", f)
	}
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	defer s.frameMu[fi].Unlock()
	fr := &s.frames[f]
	if fr.free {
		return fmt.Errorf("mem: write of invalid frame %d", f)
	}
	if off < 0 || off >= len(fr.data) {
		return fmt.Errorf("mem: frame offset %d out of range", off)
	}
	fr.used = true
	fr.modified = true
	fr.data[off] = val
	return nil
}

// ReadWords copies len(dst) words of page pid, starting at word off, into
// dst: one segment lookup and one frame-stripe lock for the whole run. A
// page not in core is brought in first exactly as PageIn would, consulting
// the fault hook, so an injected ErrIO leaves the store unchanged and the
// call is safe to retry.
func (s *Store) ReadWords(pid PageID, off int, dst []uint64) error {
	return s.transferWords(pid, off, dst, 0, false)
}

// WriteWords copies src into page pid starting at word off, first growing
// the segment to at least minLength words. It is ReadWords' write twin and
// marks the page modified.
func (s *Store) WriteWords(pid PageID, off int, src []uint64, minLength int) error {
	return s.transferWords(pid, off, src, minLength, true)
}

// transferWords is the body of ReadWords and WriteWords. The segment lock
// pins the page in its frame for the whole copy, so the words can never
// land in a frame that was evicted or reused between locating and copying.
func (s *Store) transferWords(pid PageID, off int, buf []uint64, minLength int, write bool) error {
	if off < 0 || off+len(buf) > s.cfg.PageWords {
		return fmt.Errorf("mem: words [%d,%d) outside a %d-word page", off, off+len(buf), s.cfg.PageWords)
	}
	sp, ok := s.seg(pid.SegUID)
	if !ok {
		return fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.deleted {
		return fmt.Errorf("mem: segment %#x does not exist", pid.SegUID)
	}
	if sp.length < minLength {
		sp.length = minLength
	}
	f, _, err := s.pageInLocked(sp, pid)
	if err != nil {
		return err
	}
	fi := int(f) & stripeMask
	s.frameMu[fi].Lock()
	defer s.frameMu[fi].Unlock()
	fr := &s.frames[f]
	if fr.free || fr.pid != pid {
		return fmt.Errorf("%w (frame %d)", ErrBusy, f)
	}
	fr.used = true
	if write {
		fr.modified = true
		copy(fr.data[off:], buf)
	} else {
		copy(buf, fr.data[off:])
	}
	return nil
}
