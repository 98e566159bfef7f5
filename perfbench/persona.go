package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/netattach"
	"repro/internal/workload"
	"repro/multics"
)

// persona_mix replays loadgen's default office population (editor=3,
// compiler=2, daemon=1, tenants=2) with long-lived sessions through the
// network front-end, one compiled Plan per epoch: dial every session,
// fire the burst schedule round by round (Send → Flush → TryRecv), log
// every session out. Replies live in the front-end's private buffer store,
// so the kernel's backing store, fs and page control stay idle.
//
// An op is one request; a latency sample is one service round (bursts
// sent → replies read back). The measured phase ends only between
// epochs, so every session dialled also logs out inside it. The
// deterministic prefix is the first epoch: its SessionDigest uses
// workload.Run's encoding, so it equals workload.RunAt's digest for the
// same scenario.

// personaShape sizes the population.
type personaShape struct {
	sessions, stepScale int
}

func personaShapeFor(short bool) personaShape {
	if short {
		return personaShape{sessions: 32, stepScale: 2}
	}
	return personaShape{sessions: 512, stepScale: 45}
}

// personaScenario is the scenario both this benchmark and workload.RunAt
// replay for a seed.
func personaScenario(seed int64, sh personaShape) *workload.Scenario {
	sc := workload.NewScenario("persona_mix", seed).Sessions(sh.sessions).ClosedLoop()
	for _, m := range []struct {
		p workload.Persona
		w int
	}{
		{workload.InteractiveEditor(), 3}, {workload.BatchCompiler(), 2},
		{workload.Daemon(), 1}, {workload.TenantPair(), 2},
	} {
		m.p.Steps *= sh.stepScale
		sc.Mix(m.p, m.w)
	}
	return sc
}

type personaMix struct {
	sys  *multics.System
	fe   *netattach.Frontend
	plan *workload.Plan
	bs   *timedStore
	tr   *tracer

	// expect[i][j] is the reply to session i's step j, computed from the
	// script alone.
	expect [][]uint64

	// Epoch state.
	conns  []*netattach.Conn
	active bool
	round  int
	next   []int // next window per session
	sent   []int // requests accepted per session
	got    []int // replies read back per session
	hs     []hash.Hash
	epochs int
	sdig   string

	// plant corrupts one observed reply (tests only): the global request
	// index to corrupt, or -1.
	plant int64
	seen  int64
}

func newPersonaMix(seed int64, short bool) (runner, error) {
	bs, err := newTimedStore()
	if err != nil {
		return nil, err
	}
	sc := personaScenario(seed, personaShapeFor(short)).Backing(bs)
	plan, err := sc.Plan()
	if err != nil {
		return nil, err
	}
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		return nil, err
	}
	// The front-end shape workload.Run serves a scenario of this size with.
	workers := 4
	if len(plan.Scripts) >= 64 {
		workers = 8
	}
	fe, err := sys.Serve(netattach.Config{Workers: workers, MaxConns: len(plan.Scripts)})
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	p := &personaMix{sys: sys, fe: fe, plan: plan, bs: bs, plant: -1}
	p.expect = make([][]uint64, len(plan.Scripts))
	for i, s := range plan.Scripts {
		var sum uint64
		e := make([]uint64, len(s.Steps))
		for j, st := range s.Steps {
			switch st.Op {
			case netattach.OpEcho, netattach.OpSpin:
				e[j] = st.Arg
			case netattach.OpSum:
				sum += st.Arg
				e[j] = sum
			case netattach.OpLevel:
				e[j] = uint64(s.Level)
			default:
				return nil, fmt.Errorf("persona_mix: unexpected op %v in plan", st.Op)
			}
		}
		p.expect[i] = e
	}
	return p, nil
}

func (p *personaMix) system() *multics.System  { return p.sys }
func (p *personaMix) setTracer(t *tracer)      { p.tr = t }
func (p *personaMix) mayStop() bool            { return p.epochs >= 1 && !p.active }
func (p *personaMix) finish(*meter) error      { return nil }
func (p *personaMix) digest() string           { return p.sdig }
func (p *personaMix) counts() map[string]int64 { return nil }
func (p *personaMix) close()                   { p.sys.Shutdown() }

func (p *personaMix) step(m *meter) error {
	if !p.active {
		return p.login()
	}
	// Skip rounds with nothing due; run the next due one.
	for p.round < p.plan.Rounds && !p.due(p.round) {
		p.round++
	}
	if p.round < p.plan.Rounds {
		p.serviceRound(m)
		p.round++
		return nil
	}
	return p.logout(m)
}

// login dials every session and runs the login storm.
func (p *personaMix) login() error {
	n := len(p.plan.Scripts)
	p.conns = make([]*netattach.Conn, n)
	for i, s := range p.plan.Scripts {
		id := p.tr.begin(spanDial, 0, procDriver)
		c, err := p.fe.DialAsync(s.Person, s.Project, s.Password, s.Level)
		p.tr.end(id, false)
		if err != nil {
			return fmt.Errorf("dial %d: %w", i, err)
		}
		p.conns[i] = c
	}
	id := p.tr.begin(spanLogin, 0, procDriver)
	p.fe.Flush()
	p.tr.end(id, false)
	for i, c := range p.conns {
		if c.State() != netattach.StateAttached {
			return fmt.Errorf("connection %d not attached: %v (%v)", i, c.State(), c.Err())
		}
	}
	p.active, p.round = true, 0
	p.next, p.sent, p.got = make([]int, n), make([]int, n), make([]int, n)
	p.hs = nil
	if p.epochs == 0 {
		p.hs = make([]hash.Hash, n)
		for i := range p.hs {
			p.hs[i] = sha256.New()
		}
	}
	return nil
}

func (p *personaMix) due(round int) bool {
	for i, ws := range p.plan.Windows {
		if p.next[i] < len(ws) && ws[p.next[i]].Round == round {
			return true
		}
	}
	return false
}

// serviceRound fires every due burst, lets the system run, and reads the
// replies back in table order, checking each against its script.
func (p *personaMix) serviceRound(m *meter) {
	op := m.opID()
	w0, c0 := nowNs(), m.clock.Now()
	for i, ws := range p.plan.Windows {
		if p.next[i] >= len(ws) || ws[p.next[i]].Round != p.round {
			continue
		}
		w := ws[p.next[i]]
		p.next[i]++
		for s := w.Lo; s < w.Hi; s++ {
			st := p.plan.Scripts[i].Steps[s]
			id := p.tr.begin(spanSend, op, procDriver)
			err := p.conns[i].Send(st.Op, st.Arg)
			p.tr.end(id, false)
			if err != nil {
				m.fail("send %d/%d: %v", i, s, err)
				continue
			}
			p.sent[i]++
		}
	}
	id := p.tr.begin(spanFlush, op, procDriver)
	p.fe.Flush()
	p.tr.end(id, false)
	for i, c := range p.conns {
		for {
			id := p.tr.begin(spanRecv, op, procDriver)
			v, ok, err := c.TryRecv()
			p.tr.end(id, false)
			if err != nil {
				m.fail("recv %d: %v", i, err)
				break
			}
			if !ok {
				break
			}
			p.check(m, i, v)
		}
	}
	m.sample(nowNs()-w0, m.clock.Now()-c0)
}

// check compares one reply against the script's expected reply.
func (p *personaMix) check(m *meter, i int, v uint64) {
	if p.seen == p.plant {
		v ^= 1
	}
	p.seen++
	j := p.got[i]
	p.got[i]++
	if p.hs != nil {
		fmt.Fprintf(p.hs[i], "%d %d\n", i, v)
	}
	switch {
	case j >= len(p.expect[i]):
		m.fail("session %d: unexpected reply %d beyond its %d-step script", i, v, len(p.expect[i]))
	case v != p.expect[i][j]:
		m.fail("session %d step %d: reply %d, want %d", i, j, v, p.expect[i][j])
	default:
		m.done(1)
	}
}

// logout closes every session in table order and ends the epoch. A
// request whose reply never came back was shed or lost.
func (p *personaMix) logout(m *meter) error {
	for i, c := range p.conns {
		id := p.tr.begin(spanClose, 0, procDriver)
		err := c.Close()
		p.tr.end(id, false)
		if err != nil {
			return fmt.Errorf("close %d: %w", i, err)
		}
		if missing := p.sent[i] - p.got[i]; missing > 0 {
			for k := 0; k < missing; k++ {
				m.fail("session %d: %d of %d replies missing", i, missing, p.sent[i])
			}
		}
	}
	if p.hs != nil {
		sh := sha256.New()
		for i, h := range p.hs {
			fmt.Fprintf(sh, "session %d %x\n", i, h.Sum(nil))
		}
		p.sdig = hex.EncodeToString(sh.Sum(nil))
	}
	p.active = false
	p.epochs++
	return nil
}
