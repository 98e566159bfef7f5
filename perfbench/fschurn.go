package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/mem"
	"repro/multics"
)

// fs_churn builds a D×S tree (directories × segments) owned by one
// principal, then runs a seeded mix of facade calls: mostly a second
// principal's Open+Close (path resolution plus an ACL decision), some
// List, and the owner granting and revoking that principal's access and
// creating new segments. Grants and revocations invalidate the fs caches
// beside the reads, so a cache gain that costs revocation shows up, and
// every open's allow/deny is checked against a model of the grants: a
// revoked grant served from a cache is a failure. A correct denial is not.
//
// An op is one facade call. The deterministic prefix is the first
// prefixCalls calls; the digest folds every decision and listing in it.

type churnShape struct {
	dirs, segs, prefixCalls int
	// creates is the budget of new segments a run adds. Once it is
	// spent the create slot of the mix becomes a grant/revoke, so the
	// tree stops growing and a long run measures a steady state.
	creates int
}

func churnShapeFor(short bool) churnShape {
	if short {
		return churnShape{dirs: 4, segs: 8, prefixCalls: 500, creates: 8}
	}
	return churnShape{dirs: 64, segs: 64, prefixCalls: 20000, creates: 128}
}

const (
	churnRoot    = ">churn"
	readerPerson = "Reader"
	readerACL    = "Reader.*.*"
)

type fsChurn struct {
	sh            churnShape
	seed          int64
	sys           *multics.System
	bs            *timedStore
	tr            *tracer
	owner, reader *multics.Session

	dirs    []string
	entries []int    // model: entries per directory
	paths   []string // every segment
	granted []bool   // model: reader holds "r" on paths[i]
	created int
	calls   int64
	h       hash.Hash

	// plant flips the model's verdict for one open (tests only): the
	// global open index, or -1.
	plant int64
	opens int64
}

func newFSChurn(seed int64, short bool) (runner, error) {
	sh := churnShapeFor(short)
	bs, err := newTimedStore()
	if err != nil {
		return nil, err
	}
	cfg := mem.DefaultConfig()
	cfg.CoreFrames, cfg.BulkBlocks = 4096, 4096
	cfg.Backing = bs
	// Every directory a session walks stays known to it, so the
	// descriptor segment is sized well beyond the directories a run can
	// create (the default 128 slots would fill within seconds).
	sys, err := multics.NewWithConfig(core.Config{Stage: multics.StageRestructured, Mem: &cfg,
		DescriptorSlots: 4096})
	if err != nil {
		return nil, err
	}
	f := &fsChurn{sh: sh, seed: seed, sys: sys, bs: bs, plant: -1, h: sha256.New()}
	if err := f.build(); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return f, nil
}

// build registers both principals and populates the tree: every
// directory readable (status) by the reader, each segment granted to the
// reader with seeded probability one half.
func (f *fsChurn) build() error {
	for _, u := range []string{"Owner", readerPerson} {
		if err := f.sys.AddUser(u, "Churn", u+" pw", multics.Secret); err != nil {
			return err
		}
	}
	var err error
	if f.owner, err = f.sys.Login("Owner", "Churn", "Owner pw", multics.Unclassified); err != nil {
		return err
	}
	if f.reader, err = f.sys.Login(readerPerson, "Churn", readerPerson+" pw", multics.Unclassified); err != nil {
		return err
	}
	if err := f.owner.MakeDir(churnRoot); err != nil {
		return err
	}
	if err := f.owner.SetACL(churnRoot, readerACL, "s"); err != nil {
		return err
	}
	for d := 0; d < f.sh.dirs; d++ {
		dir := fmt.Sprintf("%s>d%03d", churnRoot, d)
		if err := f.owner.MakeDir(dir); err != nil {
			return err
		}
		if err := f.owner.SetACL(dir, readerACL, "s"); err != nil {
			return err
		}
		f.dirs = append(f.dirs, dir)
		f.entries = append(f.entries, 0)
		for s := 0; s < f.sh.segs; s++ {
			path := fmt.Sprintf("%s>s%03d", dir, s)
			if err := f.owner.CreateSegment(path, 64); err != nil {
				return err
			}
			g := mix(uint64(f.seed), 0xf5, uint64(d), uint64(s))%2 == 0
			if g {
				if err := f.owner.SetACL(path, readerACL, "r"); err != nil {
					return err
				}
			}
			f.paths = append(f.paths, path)
			f.granted = append(f.granted, g)
			f.entries[d]++
		}
	}
	return nil
}

func (f *fsChurn) system() *multics.System  { return f.sys }
func (f *fsChurn) setTracer(t *tracer)      { f.tr = t; f.bs.tr = t }
func (f *fsChurn) mayStop() bool            { return f.calls >= int64(f.sh.prefixCalls) }
func (f *fsChurn) finish(*meter) error      { return nil }
func (f *fsChurn) digest() string           { return hex.EncodeToString(f.h.Sum(nil)) }
func (f *fsChurn) counts() map[string]int64 { return nil }
func (f *fsChurn) close()                   { f.sys.Shutdown() }

// call times one facade call on both clocks and under a span.
func (f *fsChurn) call(m *meter, name string, fn func() error) error {
	f.calls++
	op := m.opID()
	id := f.tr.begin(name, op, procDriver)
	w0, c0 := nowNs(), m.clock.Now()
	err := fn()
	m.sample(nowNs()-w0, m.clock.Now()-c0)
	f.tr.end(id, false)
	return err
}

func denied(err error) bool {
	var de *acl.DeniedError
	return errors.As(err, &de) || gate.Classify(err) == gate.ClassAccessDenied
}

// step runs one seeded action: 80% reader open(+close), 8% list, 11.5%
// grant/revoke, 0.5% create (grant/revoke once the create budget is
// spent).
func (f *fsChurn) step(m *meter) error {
	inPrefix := f.calls < int64(f.sh.prefixCalls)
	x := mix(uint64(f.seed), 0xc4, uint64(f.calls))
	r := x % 1000
	if r >= 995 && f.created >= f.sh.creates {
		r = 990 // create budget spent: grant/revoke instead
	}
	switch {
	case r < 800:
		i := int(x>>8) % len(f.paths)
		var seg *multics.Segment
		err := f.call(m, spanOpen, func() (err error) {
			seg, err = f.reader.Open(f.paths[i], "")
			return err
		})
		want := f.granted[i]
		if f.opens == f.plant {
			want = !want
		}
		f.opens++
		allowed := err == nil
		switch {
		case err != nil && !denied(err):
			m.fail("open %s: %v", f.paths[i], err)
		case allowed != want:
			m.fail("open %s: allowed=%v, model says %v", f.paths[i], allowed, want)
		default:
			m.done(1)
		}
		if inPrefix {
			fmt.Fprintf(f.h, "open %d %v\n", i, allowed)
		}
		if allowed {
			if err := f.call(m, spanSegClose, seg.Close); err != nil {
				m.fail("close %s: %v", f.paths[i], err)
			} else {
				m.done(1)
			}
		}
	case r < 880:
		d := int(x>>8) % len(f.dirs)
		var names []string
		err := f.call(m, spanList, func() (err error) {
			names, err = f.reader.List(f.dirs[d])
			return err
		})
		switch {
		case err != nil:
			m.fail("list %s: %v", f.dirs[d], err)
		case len(names) != f.entries[d]:
			m.fail("list %s: %d entries, model says %d", f.dirs[d], len(names), f.entries[d])
		default:
			m.done(1)
		}
		if inPrefix {
			fmt.Fprintf(f.h, "list %d %d\n", d, len(names))
		}
	case r < 995:
		i := int(x>>8) % len(f.paths)
		mode := "r"
		if f.granted[i] {
			mode = "null" // revoke
		}
		if err := f.call(m, spanSetACL, func() error { return f.owner.SetACL(f.paths[i], readerACL, mode) }); err != nil {
			m.fail("set_acl %s %s: %v", f.paths[i], mode, err)
			return nil
		}
		f.granted[i] = !f.granted[i]
		m.done(1)
	default:
		// hcs_$list_dir returns names through a fixed 512-byte result
		// area, so new segments go into fresh directories of at most
		// createsPerDir entries rather than growing the listed ones.
		if f.created%createsPerDir == 0 {
			dir := fmt.Sprintf("%s>x%04d", churnRoot, f.created/createsPerDir)
			if err := f.call(m, spanMakeDir, func() error { return f.owner.MakeDir(dir) }); err != nil {
				m.fail("make_dir %s: %v", dir, err)
				return nil
			}
			m.done(1)
			if err := f.call(m, spanSetACL, func() error { return f.owner.SetACL(dir, readerACL, "s") }); err != nil {
				m.fail("set_acl %s s: %v", dir, err)
				return nil
			}
			m.done(1)
			f.dirs = append(f.dirs, dir)
			f.entries = append(f.entries, 0)
		}
		d := len(f.dirs) - 1
		path := fmt.Sprintf("%s>n%05d", f.dirs[d], f.created)
		f.created++
		if err := f.call(m, spanCreate, func() error { return f.owner.CreateSegment(path, 64) }); err != nil {
			m.fail("create %s: %v", path, err)
			return nil
		}
		f.paths = append(f.paths, path)
		f.granted = append(f.granted, false)
		f.entries[d]++
		m.done(1)
	}
	return nil
}

// createsPerDir bounds the directories new segments are created in.
const createsPerDir = 32
