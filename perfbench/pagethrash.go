package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/multics"
)

// page_thrash runs simulated processes that each touch their own segment
// through Segment.ReadWord/WriteWord inside Proc.Run, interleaving reads
// and writes. Each process has a hot set, and the hot sets together fit
// in core; a cold tail makes the total footprint several times core+bulk,
// so the parallel pager, its freeing processes, mem transfers and the
// blockstore backing store all work, while the hit path stays visible.
// Written values are seeded and distinct, so dedup cannot hide page-out
// cost. One Sync closes the measured phase.
//
// An op is one word touch. The deterministic prefix is the first
// prefixRounds rounds; the digest folds every value read in it.

type thrashShape struct {
	procs, pages, hot, touches, prefixRounds int
	cfg                                      mem.Config
	hotPct                                   uint64
}

func thrashShapeFor(short bool) thrashShape {
	cfg := mem.DefaultConfig() // 64-word pages
	cfg.CoreFrames, cfg.BulkBlocks = 128, 256
	sh := thrashShape{procs: 4, pages: 384, hot: 24, touches: 256, prefixRounds: 8, cfg: cfg, hotPct: 85}
	if short {
		sh.cfg.CoreFrames, sh.cfg.BulkBlocks = 32, 64
		sh.pages, sh.hot, sh.touches, sh.prefixRounds = 96, 6, 64, 2
	}
	return sh
}

type pageThrash struct {
	sh     thrashShape
	seed   int64
	sys    *multics.System
	sch    *sched.Scheduler
	bs     *timedStore
	tr     *tracer
	sess   []*multics.Session
	segs   []*multics.Segment
	names  map[string]int32 // process name -> session index
	shadow [][]uint64
	faults *metrics.Counter
	round  int
	h      hash.Hash

	// plant corrupts one read value (tests only): the global touch index,
	// or -1.
	plant   int64
	touched int64

	// reissues counts touches the driver re-issued after the processor
	// returned a page fault (see maxReissues).
	reissues int64
}

// maxReissues bounds how often a touch is re-issued. machine.Processor
// retries a reference once after a handled page fault and returns the
// second fault to the caller; under contention another process's fault
// can evict the page in between. The driver then re-issues the touch, as
// the hardware would restart the instruction, and counts it
// (machine.touch_reissues) so the cost stays visible. A touch that still
// faults after maxReissues re-issues is a failure.
const maxReissues = 8

func newPageThrash(seed int64, short bool) (runner, error) {
	sh := thrashShapeFor(short)
	bs, err := newTimedStore()
	if err != nil {
		return nil, err
	}
	cfg := sh.cfg
	cfg.Backing = bs
	sys, err := multics.NewWithConfig(core.Config{Stage: multics.StageRestructured, Mem: &cfg})
	if err != nil {
		return nil, err
	}
	svc := sys.Kernel.Services()
	t := &pageThrash{sh: sh, seed: seed, sys: sys, sch: svc.Scheduler, bs: bs, plant: -1,
		names: map[string]int32{}, faults: svc.Metrics.Counter("pagectl.faults"), h: sha256.New()}
	words := sh.pages * cfg.PageWords
	for i := 0; i < sh.procs; i++ {
		person, pw := fmt.Sprintf("Thrash%d", i), fmt.Sprintf("thrash%d pw", i)
		if err := sys.AddUser(person, "Load", pw, multics.Secret); err != nil {
			return nil, t.abort(err)
		}
		s, err := sys.Login(person, "Load", pw, multics.Unclassified)
		if err != nil {
			return nil, t.abort(err)
		}
		path := fmt.Sprintf(">thrash%d", i)
		if err := s.CreateSegment(path, words); err != nil {
			return nil, t.abort(err)
		}
		seg, err := s.Open(path, "")
		if err != nil {
			return nil, t.abort(err)
		}
		t.sess = append(t.sess, s)
		t.segs = append(t.segs, seg)
		t.shadow = append(t.shadow, make([]uint64, words))
		t.names[s.Proc.Name] = int32(i)
	}
	if len(t.names) != sh.procs {
		return nil, t.abort(fmt.Errorf("page_thrash: process names are not distinct"))
	}
	// Populate: write every page once, so the cold tail lives in the
	// backing store before the measured phase starts.
	var popErr error
	err = t.runAll("populate", func(i int) {
		for pg := 0; pg < sh.pages && popErr == nil; pg++ {
			off := pg * cfg.PageWords
			v := value(seed, i, -1, pg)
			if _, err := t.touch(t.segs[i], off, true, v); err != nil {
				popErr = err
				return
			}
			t.shadow[i][off] = v
		}
	})
	if err == nil {
		err = popErr
	}
	if err != nil {
		return nil, t.abort(err)
	}
	return t, nil
}

func (t *pageThrash) abort(err error) error { t.sys.Shutdown(); return err }

// value is the seeded, distinct word written by touch k of process i in
// round r (r = -1: population).
func value(seed int64, i, r, k int) uint64 {
	return mix(uint64(seed), 0x7e, uint64(i), uint64(int64(r)), uint64(k)) | 1
}

func (t *pageThrash) system() *multics.System { return t.sys }
func (t *pageThrash) mayStop() bool           { return t.round >= t.sh.prefixRounds }
func (t *pageThrash) digest() string          { return hex.EncodeToString(t.h.Sum(nil)) }
func (t *pageThrash) close()                  { t.sys.Shutdown() }

func (t *pageThrash) setTracer(tr *tracer) {
	t.tr = tr
	t.bs.tr = tr
	svc := t.sys.Kernel.Services()
	if tr == nil {
		t.sch.SetSink(svc.Trace)
		return
	}
	tr.teeScheduler(t.sch, svc.Trace, func(name string) int32 {
		if i, ok := t.names[name]; ok {
			return i
		}
		return procDriver
	})
}

// step runs one round: every process does its touches under the
// scheduler, so page-fault waits interleave.
func (t *pageThrash) step(m *meter) error {
	r := t.round
	inPrefix := r < t.sh.prefixRounds
	if err := t.runAll(fmt.Sprintf("round %d", r), func(i int) { t.touches(m, i, r, inPrefix) }); err != nil {
		return err
	}
	t.round++
	return nil
}

// runAll runs body(i) as session i's program for every session under the
// scheduler, and checks that every one finished.
func (t *pageThrash) runAll(what string, body func(i int)) error {
	procs := make([]*sched.Process, len(t.sess))
	for i := range t.sess {
		procs[i] = t.sess[i].Proc.Run(func(*sched.ProcCtx) { body(i) })
	}
	id := t.tr.begin(spanPump, 0, procDriver)
	t.sch.Run(0)
	t.tr.end(id, false)
	for i, p := range procs {
		if p.State() != sched.StateDone {
			return fmt.Errorf("%s: process %d left %v (%s)", what, i, p.State(), p.BlockReason())
		}
	}
	return nil
}

// touch reads or writes one word, re-issuing it after a returned page
// fault (see maxReissues).
func (t *pageThrash) touch(seg *multics.Segment, off int, write bool, v uint64) (got uint64, err error) {
	for try := 0; ; try++ {
		if write {
			err = seg.WriteWord(off, v)
		} else {
			got, err = seg.ReadWord(off)
		}
		var f *machine.Fault
		if !errors.As(err, &f) || f.Class != machine.FaultPage || try == maxReissues {
			return got, err
		}
		t.reissues++
	}
}

func (t *pageThrash) counts() map[string]int64 {
	return map[string]int64{"machine.touch_reissues": t.reissues}
}

// touches is process i's body for round r.
func (t *pageThrash) touches(m *meter, i, r int, inPrefix bool) {
	sh, pw := t.sh, t.sh.cfg.PageWords
	seg, shadow := t.segs[i], t.shadow[i]
	var buf [8]byte
	for k := 0; k < sh.touches; k++ {
		x := mix(uint64(t.seed), 0x70, uint64(i), uint64(r), uint64(k))
		page := int(x>>8) % sh.hot
		if x%100 >= sh.hotPct {
			page = sh.hot + int(x>>8)%(sh.pages-sh.hot)
		}
		off := page*pw + int(x>>40)%pw
		write := (x>>4)%5 < 2 // 40% writes
		op := m.opID()
		name := spanRead
		if write {
			name = spanWrite
		}
		var f0 int64
		id := t.tr.begin(name, op, int32(i))
		if id >= 0 {
			f0 = t.faults.Value()
		}
		w0, c0 := nowNs(), m.clock.Now()
		v := value(t.seed, i, r, k)
		got, err := t.touch(seg, off, write, v)
		m.sample(nowNs()-w0, m.clock.Now()-c0)
		if id >= 0 {
			t.tr.end(id, t.faults.Value() != f0)
		}
		if t.touched == t.plant {
			got ^= 1
		}
		t.touched++
		switch {
		case err != nil:
			m.fail("process %d touch %d/%d: %v", i, r, k, err)
		case write:
			shadow[off] = v
			m.done(1)
		case got != shadow[off]:
			m.fail("process %d touch %d/%d: stale read at word %d: %#x, want %#x", i, r, k, off, got, shadow[off])
		default:
			m.done(1)
		}
		if inPrefix && !write {
			binary.LittleEndian.PutUint64(buf[:], got)
			t.h.Write(buf[:])
		}
	}
}

// finish is the measured phase's durability barrier.
func (t *pageThrash) finish(*meter) error {
	if err := t.bs.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}
