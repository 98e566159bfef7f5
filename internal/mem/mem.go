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
	// transfer counters into (mem.* names). When nil the
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

// numShards is the number of home free lists. A page's home list
// (homeShard) and the fixed order in which an allocation falls through to
// the other lists decide which frame or block it gets, so they fix every
// victim order and digest downstream.
const (
	numShards = 8
	shardMask = numShards - 1
)

// Store is the whole simulated memory hierarchy plus the page tables of all
// segments. It is safe for concurrent use: one mutex guards the frame and
// block tables, the segment map, every page table, the free lists and the
// fault hook. A method holds it across everything it reads and changes, so
// a page cannot move between being located and being touched. Transfer counters
// are metrics-registry atomics and need no lock.
//
// Lock order: the store lock, then the backing store's or the fault hook's
// own lock. Neither may call back into the Store.
type Store struct {
	cfg Config

	// backing is the durable block layer serving LevelDisk. It may also
	// hold stale copies of pages whose live location is core or bulk —
	// checkpoint flushes write through without moving pages, exactly as
	// a real disk copy goes stale when the page is later dirtied in core.
	backing BackingStore

	mu     sync.Mutex
	frames []frame
	blocks []block
	segs   map[uint64]*segmentPages
	// freeFrames and freeBlocks are the home free lists, LIFO each.
	freeFrames [numShards][]int
	freeBlocks [numShards][]int
	// hook, when set, interposes on every backing-store transfer; see
	// faulthook.go.
	hook FaultHook

	// Transfer counts live in the unified metrics registry; these are
	// pre-resolved handles. frameSteals and blockSteals count the
	// allocations that left the page's home free list (takeFree), not
	// lock contention.
	bulkToCore, diskToCore   *metrics.Counter
	coreToBulk, coreToDisk   *metrics.Counter
	bulkToDisk, diskToBulk   *metrics.Counter
	zeroFills                *metrics.Counter
	frameSteals, blockSteals *metrics.Counter
	ckptFlushes              *metrics.Counter
}

// segmentPages is the page table of one segment, guarded by the store lock.
type segmentPages struct {
	length int // length in words
	pages  map[int]Location
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
		segs:        make(map[uint64]*segmentPages),
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
		putFree(&st.freeFrames, i)
	}
	for i := range st.blocks {
		st.blocks[i].free = true
		putFree(&st.freeBlocks, i)
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

// segLocked returns the page table of uid, or the store's "does not exist"
// error. The caller holds the store lock.
func (s *Store) segLocked(uid uint64) (*segmentPages, error) {
	sp, ok := s.segs[uid]
	if !ok {
		return nil, fmt.Errorf("mem: segment %#x does not exist", uid)
	}
	return sp, nil
}

// CreateSegment registers a segment of length words, with all pages
// unmaterialized. It fails if the UID is already in use.
func (s *Store) CreateSegment(uid uint64, length int) error {
	if length < 0 {
		return fmt.Errorf("mem: negative segment length %d", length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segs[uid]; ok {
		return fmt.Errorf("mem: segment %#x already exists", uid)
	}
	s.segs[uid] = &segmentPages{length: length, pages: make(map[int]Location)}
	return nil
}

// SegmentLength returns the length in words of segment uid; ok is false
// when no such segment exists.
func (s *Store) SegmentLength(uid uint64) (length int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.segs[uid]
	if !ok {
		return 0, false
	}
	return sp.length, true
}

// SegmentUIDs returns the UIDs of all registered segments, sorted.
func (s *Store) SegmentUIDs() []uint64 {
	s.mu.Lock()
	out := make([]uint64, 0, len(s.segs))
	for uid := range s.segs {
		out = append(out, uid)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeleteSegment releases every page of uid at every level.
func (s *Store) DeleteSegment(uid uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(uid)
	if err != nil {
		return err
	}
	delete(s.segs, uid)
	for idx, loc := range sp.pages {
		s.releasePage(PageID{SegUID: uid, Index: idx}, loc)
	}
	return nil
}

// releasePage returns a page's storage to the free pools. The caller holds
// the store lock and removes the page from its page table.
func (s *Store) releasePage(pid PageID, loc Location) {
	switch loc.Level {
	case LevelCore:
		// The frame keeps its page memory: the page is gone, so nothing
		// else can hold the slice, and the next zero-fill of this frame
		// clears and reuses it (materializeZeroLocked).
		s.frames[loc.Frame] = frame{free: true, data: s.frames[loc.Frame].data}
		putFree(&s.freeFrames, int(loc.Frame))
	case LevelBulk:
		s.blocks[loc.Block] = block{free: true}
		putFree(&s.freeBlocks, int(loc.Block))
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
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(uid)
	if err != nil {
		return err
	}
	if length < 0 {
		return fmt.Errorf("mem: negative segment length %d", length)
	}
	lastPage := s.pagesIn(length)
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

// pagesIn returns the number of pages a segment of length words spans,
// without the overflow rounding up by addition would risk near MaxInt.
func (s *Store) pagesIn(length int) int {
	n := length / s.cfg.PageWords
	if length%s.cfg.PageWords != 0 {
		n++
	}
	return n
}

// Discard releases one page of a segment at whatever level it lives,
// without shrinking the segment: a later reference materializes the page
// again, zero-filled. It is the primitive behind the infinite I/O buffer's
// reclamation of consumed pages — the buffer only ever grows logically, but
// fully-consumed pages return their storage to the standard free pools.
// Discarding an unmaterialized page is a no-op.
func (s *Store) Discard(pid PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(pid.SegUID)
	if err != nil {
		return err
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
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(pid.SegUID)
	if err != nil {
		return Location{}, err
	}
	loc, ok := sp.pages[pid.Index]
	if !ok {
		return Location{Level: LevelNone}, nil
	}
	return loc, nil
}

// FreeFrameCount returns the number of free primary-memory frames.
func (s *Store) FreeFrameCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return countFree(&s.freeFrames)
}

// FreeBlockCount returns the number of free bulk-store blocks.
func (s *Store) FreeBlockCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return countFree(&s.freeBlocks)
}

func countFree(lists *[numShards][]int) int {
	n := 0
	for _, ids := range lists {
		n += len(ids)
	}
	return n
}

// homeShard spreads allocations for different pages over the home lists
// while keeping the choice deterministic for a given page.
func homeShard(pid PageID) int {
	return int((pid.SegUID*31 + uint64(pid.Index)) & shardMask)
}

// takeFree pops a free ID, starting at the page's home list and falling
// through to the others in fixed order when it is empty. steals counts the
// allocations that left the home list.
func takeFree(lists *[numShards][]int, home int, steals *metrics.Counter) (int, bool) {
	for i := 0; i < numShards; i++ {
		ids := &lists[(home+i)&shardMask]
		if n := len(*ids); n > 0 {
			id := (*ids)[n-1]
			*ids = (*ids)[:n-1]
			if i != 0 {
				steals.Add(1)
			}
			return id, true
		}
	}
	return 0, false
}

func putFree(lists *[numShards][]int, id int) {
	lists[id&shardMask] = append(lists[id&shardMask], id)
}

func (s *Store) takeFrame(pid PageID) (FrameID, bool) {
	id, ok := takeFree(&s.freeFrames, homeShard(pid), s.frameSteals)
	return FrameID(id), ok
}

func (s *Store) takeBlock(pid PageID) (BlockID, bool) {
	id, ok := takeFree(&s.freeBlocks, homeShard(pid), s.blockSteals)
	return BlockID(id), ok
}

// ErrNoFreeFrame is returned when a page-in needs a core frame and none is
// free. Page control reacts by freeing one (the design under test).
var ErrNoFreeFrame = errors.New("mem: no free primary memory frame")

// ErrNoFreeBlock is the bulk-store analogue of ErrNoFreeFrame.
var ErrNoFreeBlock = errors.New("mem: no free bulk store block")

// ErrBusy reports that a frame or block changed state between a caller's
// observation and the transfer it asked for. Page control reacts by
// choosing another victim and iosys by retrying. The Store holds its lock
// across every transfer, so it never raises ErrBusy itself; the sentinel
// is the contract for fault hooks and other layers that do.
var ErrBusy = errors.New("mem: frame or block changed state during transfer")

// MaterializeZero brings an unmaterialized page into core as zeros. It
// consumes a free frame and charges no transfer latency (zero-fill is a
// core-speed operation).
func (s *Store) MaterializeZero(pid PageID) (FrameID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(pid.SegUID)
	if err != nil {
		return 0, err
	}
	return s.materializeZeroLocked(sp, pid)
}

// materializeZeroLocked is MaterializeZero with the store lock held. It
// reuses the page memory a released frame kept; the clear is the
// object-reuse guarantee: a recycled frame never shows its last owner's
// words.
func (s *Store) materializeZeroLocked(sp *segmentPages, pid PageID) (FrameID, error) {
	if loc, ok := sp.pages[pid.Index]; ok {
		return 0, fmt.Errorf("mem: page %v already materialized at %v", pid, loc.Level)
	}
	f, ok := s.takeFrame(pid)
	if !ok {
		return 0, ErrNoFreeFrame
	}
	data := s.frames[f].data
	if len(data) == s.cfg.PageWords {
		clear(data)
	} else {
		data = make([]uint64, s.cfg.PageWords)
	}
	s.frames[f] = frame{pid: pid, data: data, used: true}
	sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
	s.zeroFills.Inc()
	return f, nil
}

// installLocked puts page data into frame f, which the caller took from
// the free list, and records the page there.
func (s *Store) installLocked(sp *segmentPages, f FrameID, pid PageID, data []uint64) {
	s.frames[f] = frame{pid: pid, data: data, used: true}
	sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
}

// PageIn transfers a page from bulk or disk into a free core frame and
// returns the frame plus the transfer latency charged to whoever waited.
func (s *Store) PageIn(pid PageID) (FrameID, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(pid.SegUID)
	if err != nil {
		return 0, 0, err
	}
	return s.pageInLocked(sp, pid)
}

// pageInLocked is PageIn with the store lock held. A core-resident page
// costs nothing and never consults the fault hook.
func (s *Store) pageInLocked(sp *segmentPages, pid PageID) (FrameID, int64, error) {
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
		data := s.blocks[loc.Block].data
		s.blocks[loc.Block] = block{free: true}
		putFree(&s.freeBlocks, int(loc.Block))
		s.installLocked(sp, f, pid, data)
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
		s.installLocked(sp, f, pid, data)
		s.diskToCore.Inc()
		return f, s.cfg.DiskRead, nil
	default:
		return 0, 0, fmt.Errorf("mem: page %v in unexpected state %v", pid, loc.Level)
	}
}

// evictableLocked returns the page in frame f and its page table, or an
// error if f is out of range, free or wired. An occupied frame's segment
// always exists: DeleteSegment frees its frames under the same lock.
func (s *Store) evictableLocked(f FrameID) (PageID, *segmentPages, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return PageID{}, nil, fmt.Errorf("mem: frame %d out of range", f)
	}
	fr := &s.frames[f]
	if fr.free {
		return PageID{}, nil, fmt.Errorf("mem: frame %d is free", f)
	}
	if fr.wired {
		return PageID{}, nil, fmt.Errorf("mem: frame %d is wired", f)
	}
	return fr.pid, s.segs[fr.pid.SegUID], nil
}

// stripFrame frees frame f and returns its page data. The data leaves with
// the page (to a bulk block or the backing store), so the freed frame
// keeps no slice.
func (s *Store) stripFrame(f FrameID) []uint64 {
	data := s.frames[f].data
	s.frames[f] = frame{free: true}
	putFree(&s.freeFrames, int(f))
	return data
}

// EvictToBulk moves the page in frame f to a free bulk-store block,
// returning the block and the latency.
func (s *Store) EvictToBulk(f FrameID) (BlockID, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pid, sp, err := s.evictableLocked(f)
	if err != nil {
		return 0, 0, err
	}
	if err := s.checkIO(OpBulkWrite, pid); err != nil {
		return 0, 0, err
	}
	b, ok := s.takeBlock(pid)
	if !ok {
		return 0, 0, ErrNoFreeBlock
	}
	data := s.stripFrame(f)
	s.pageOut(OpBulkWrite, pid, data)
	s.blocks[b] = block{pid: pid, data: data}
	sp.pages[pid.Index] = Location{Level: LevelBulk, Block: b}
	s.coreToBulk.Inc()
	return b, s.cfg.BulkWrite, nil
}

// EvictToDisk moves the page in frame f directly to disk.
func (s *Store) EvictToDisk(f FrameID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pid, sp, err := s.evictableLocked(f)
	if err != nil {
		return 0, err
	}
	if err := s.checkIO(OpDiskWrite, pid); err != nil {
		return 0, err
	}
	data := s.stripFrame(f)
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
func (s *Store) reinstatePage(sp *segmentPages, pid PageID, data []uint64) {
	if f, ok := s.takeFrame(pid); ok {
		s.installLocked(sp, f, pid, data)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	bl := &s.blocks[b]
	if bl.free {
		return 0, fmt.Errorf("mem: block %d is free", b)
	}
	pid := bl.pid
	if err := s.checkIO(OpBulkToDisk, pid); err != nil {
		return 0, err
	}
	data := bl.data
	*bl = block{free: true}
	putFree(&s.freeBlocks, int(b))

	sp := s.segs[pid.SegUID]
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
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &s.frames[f]
	return Frame{ID: f, Free: fr.free, PID: fr.pid, Used: fr.used, Modified: fr.modified, Wired: fr.wired}, nil
}

// Frames returns metadata for every frame, for replacement policies.
func (s *Store) Frames() []Frame {
	out := make([]Frame, len(s.frames))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.frames {
		fr := &s.frames[i]
		out[i] = Frame{ID: FrameID(i), Free: fr.free, PID: fr.pid, Used: fr.used, Modified: fr.modified, Wired: fr.wired}
	}
	return out
}

// AppendEvictable appends the occupied, unwired frames to dst in frame-ID
// order and returns the extended slice: the replacement candidates, without
// copying the whole frame table.
func (s *Store) AppendEvictable(dst []Frame) []Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.frames {
		fr := &s.frames[i]
		if !fr.free && !fr.wired {
			dst = append(dst, Frame{ID: FrameID(i), PID: fr.pid, Used: fr.used, Modified: fr.modified})
		}
	}
	return dst
}

// Block gives page-control read access to bulk-store block metadata.
type Block struct {
	ID   BlockID
	Free bool
	PID  PageID
}

// Blocks returns metadata for every bulk-store block.
func (s *Store) Blocks() []Block {
	out := make([]Block, len(s.blocks))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.blocks {
		bl := &s.blocks[i]
		out[i] = Block{ID: BlockID(i), Free: bl.free, PID: bl.pid}
	}
	return out
}

// LowestBulkBlock returns the occupied bulk-store block holding the lowest
// (SegUID, Index) page, scanning the block table in place; ties go to the
// lowest block ID. ok is false when every block is free.
func (s *Store) LowestBulkBlock() (id BlockID, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best PageID
	for i := range s.blocks {
		bl := &s.blocks[i]
		if !bl.free && (!ok || bl.pid.SegUID < best.SegUID ||
			(bl.pid.SegUID == best.SegUID && bl.pid.Index < best.Index)) {
			id, best, ok = BlockID(i), bl.pid, true
		}
	}
	return id, ok
}

// ResetUsage clears the referenced bit of frame f (clock-algorithm support).
func (s *Store) ResetUsage(f FrameID) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: frame %d out of range", f)
	}
	s.mu.Lock()
	s.frames[f].used = false
	s.mu.Unlock()
	return nil
}

// Wire pins the page in frame f into core (kernel pages).
func (s *Store) Wire(f FrameID, wired bool) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: frame %d out of range", f)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frames[f].free {
		return fmt.Errorf("mem: cannot wire free frame %d", f)
	}
	s.frames[f].wired = wired
	return nil
}

// ReadWord reads a word from a core-resident page.
func (s *Store) ReadWord(f FrameID, off int) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wordLocked(f, off, false, 0)
}

// WriteWord writes a word to a core-resident page.
func (s *Store) WriteWord(f FrameID, off int, val uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.wordLocked(f, off, true, val)
	return err
}

// wordLocked reads word off of occupied frame f, or writes val there when
// write is set, marking the frame referenced (and modified on a write).
func (s *Store) wordLocked(f FrameID, off int, write bool, val uint64) (uint64, error) {
	verb := "read"
	if write {
		verb = "write"
	}
	if int(f) < 0 || int(f) >= len(s.frames) || s.frames[f].free {
		return 0, fmt.Errorf("mem: %s of invalid frame %d", verb, f)
	}
	fr := &s.frames[f]
	if off < 0 || off >= len(fr.data) {
		return 0, fmt.Errorf("mem: frame offset %d out of range", off)
	}
	fr.used = true
	if !write {
		return fr.data[off], nil
	}
	fr.modified = true
	fr.data[off] = val
	return 0, nil
}

// ReadWords copies len(dst) words of page pid, starting at word off, into
// dst: one store call for the whole run. A page not in core is brought in
// first exactly as PageIn would, consulting the fault hook, so an injected
// ErrIO leaves the store unchanged and the call is safe to retry.
func (s *Store) ReadWords(pid PageID, off int, dst []uint64) error {
	return s.transferWords(pid, off, dst, 0, false)
}

// WriteWords copies src into page pid starting at word off, first growing
// the segment to at least minLength words. It is ReadWords' write twin and
// marks the page modified.
func (s *Store) WriteWords(pid PageID, off int, src []uint64, minLength int) error {
	return s.transferWords(pid, off, src, minLength, true)
}

// transferWords is the body of ReadWords and WriteWords. The store lock
// pins the page in its frame for the whole copy, so the words can never
// land in a frame that was evicted or reused between locating and copying.
func (s *Store) transferWords(pid PageID, off int, buf []uint64, minLength int, write bool) error {
	if off < 0 || off+len(buf) > s.cfg.PageWords {
		return fmt.Errorf("mem: words [%d,%d) outside a %d-word page", off, off+len(buf), s.cfg.PageWords)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := s.segLocked(pid.SegUID)
	if err != nil {
		return err
	}
	if sp.length < minLength {
		sp.length = minLength
	}
	f, _, err := s.pageInLocked(sp, pid)
	if err != nil {
		return err
	}
	fr := &s.frames[f]
	fr.used = true
	if write {
		fr.modified = true
		copy(fr.data[off:], buf)
	} else {
		copy(buf, fr.data[off:])
	}
	return nil
}
