// Package workload replays scripted login→work→logout traffic against a
// booted system's network attachment front-end. A Scenario composes
// weighted Persona mixes (interactive editors, batch compilers,
// long-lived daemons, MLS-labeled tenant pairs — or the classic storm
// shape) under an open- or closed-loop arrival model and compiles them
// into a Plan: every script, burst schedule and account is a pure
// function of the scenario seed. One sequential driver walks the plan's
// rounds over virtual time — storm every due burst, let the system run,
// drain the replies in session order — and folds each session's replies
// into its own transcript digest, so the same seed always produces the
// same digest, whether one kernel serves it (Run, RunWindow) or a fleet
// does (fleet.Run folds its sessions through the same Tally). The report
// carries throughput, per-persona outcome and attach-latency breakdowns,
// peak buffer occupancy, and exact drop counts, which is what lets
// cmd/loadgen show the legacy circular buffers losing traffic under
// storm while the consolidated S5 path loses none.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netattach"
	"repro/internal/trace"
	"repro/multics"
)

// Step is one scripted request inside a session.
type Step struct {
	Op  netattach.Op
	Arg uint64
}

// Script is one scripted session: who logs in, and the work they do
// before logging out.
type Script struct {
	Person, Project, Password string
	Level                     multics.Level
	Steps                     []Step
}

// PersonaReport is one persona's slice of a run.
type PersonaReport struct {
	Name     string `json:"name"`
	Sessions int    `json:"sessions"`

	Sent      int64 `json:"sent"`
	Received  int64 `json:"received"`
	Throttled int64 `json:"throttled"`
	// Failed counts this persona's sessions that died (only under a
	// fault plan).
	Failed int64 `json:"failed"`

	// AttachP50/AttachP99 are attach-latency percentiles over this
	// persona's sessions, in virtual cycles. Attaches happen under the
	// single-threaded login flush, so these are deterministic.
	AttachP50 int64 `json:"attach_p50"`
	AttachP99 int64 `json:"attach_p99"`

	// Digest folds this persona's per-session transcript digests in
	// session order.
	Digest string `json:"digest"`
}

// Report is the outcome of one traffic run.
type Report struct {
	// Scenario names the scenario that ran.
	Scenario string `json:"scenario"`
	Conns    int    `json:"conns"`
	// Steps is the longest per-session script in the scenario.
	Steps int `json:"steps"`

	// Sent counts requests accepted by Send; Throttled counts sends
	// refused at the high-water mark (explicit backpressure).
	Sent      int64 `json:"sent"`
	Throttled int64 `json:"throttled"`
	// Received counts replies read back by the engine.
	Received int64 `json:"received"`

	// Front-end counters at the end of the run (see netattach.Stats).
	Stats netattach.Stats `json:"stats"`

	// Failed counts connections whose sessions errored out despite the
	// recovery paths; zero unless the run injected faults
	// (Scenario.Faults) and a session exhausted its retries.
	Failed int64 `json:"failed"`

	// Cycles is the virtual time the run took.
	Cycles int64 `json:"cycles"`
	// Throughput is requests processed per thousand virtual cycles.
	Throughput float64 `json:"throughput"`

	// Personas breaks the outcome down per persona, sorted by name so
	// the rendering is byte-identical across runs.
	Personas []PersonaReport `json:"personas"`

	// Digest is a sha256 over the full reply transcript and the final
	// counters: the determinism witness.
	Digest string `json:"digest"`
	// SessionDigest folds the per-session reply transcripts in session
	// order using exactly the fleet runner's encoding, so a
	// single-kernel run and a fleet.Run of the same scenario can be
	// compared digest-to-digest across kernel counts and migration
	// cadences.
	SessionDigest string `json:"session_digest"`
	// ScheduleDigest folds the compiled burst schedule (see
	// Plan.ScheduleDigest): the arrival-model determinism witness.
	ScheduleDigest string `json:"schedule_digest"`
	// TraceDigest is a sha256 over the front-end's attachment-lifecycle
	// trace stream, folded per connection in ascending connection-id
	// order. Each connection's events (attach → request* → drain →
	// close) are FIFO within the connection, so the fold does not depend
	// on how the front-end's worker processes interleave connections.
	TraceDigest string `json:"trace_digest"`
}

// Format renders the report for the terminal.
func (r Report) Format() string {
	s := fmt.Sprintf(
		"scenario %s  conns %d  steps %d  sent %d  received %d  throttled %d  failed %d\n"+
			"delivered %d  processed %d  replies %d  reply-drops %d\n"+
			"input-lost %d  reply-lost %d  peak-in %d  peak-out %d\n"+
			"attach p50 %d cy  p99 %d cy  cycles %d  throughput %.2f req/kcy\n",
		r.Scenario, r.Conns, r.Steps, r.Sent, r.Received, r.Throttled, r.Failed,
		r.Stats.Delivered, r.Stats.Processed, r.Stats.Replies, r.Stats.ReplyDrops,
		r.Stats.InputLost, r.Stats.ReplyLost, r.Stats.PeakInput, r.Stats.PeakOutput,
		r.Stats.AttachP50, r.Stats.AttachP99, r.Cycles, r.Throughput)
	for _, p := range r.Personas {
		s += fmt.Sprintf("persona %-10s sessions %-4d sent %-6d received %-6d throttled %-4d failed %-3d attach p50 %d cy p99 %d cy\n",
			p.Name, p.Sessions, p.Sent, p.Received, p.Throttled, p.Failed, p.AttachP50, p.AttachP99)
	}
	s += fmt.Sprintf("digest %s\nsession-digest %s\nschedule-digest %s\ntrace-digest %s\n",
		r.Digest, r.SessionDigest, r.ScheduleDigest, r.TraceDigest)
	return s
}

// genScripts generates the stormer persona's scripts for sessions
// sessions from the historical seeded stream: one shared math/rand
// stream walked in session order, echo/sum/spin work steps, every reply
// a pure function of its arguments. The stream is what keeps old seeds
// producing the transcript digests they always did, so its draws must
// not change.
func genScripts(p *Persona, sessions int, seed int64) []Script {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([]Script, sessions)
	for i := range scripts {
		u := i % p.Users
		s := Script{
			Person:   fmt.Sprintf("Load%d", u),
			Project:  "Traffic",
			Password: fmt.Sprintf("storm%d pw", u),
			Level:    multics.Secret,
			Steps:    make([]Step, p.Steps),
		}
		for j := range s.Steps {
			switch rng.Intn(3) {
			case 0:
				s.Steps[j] = Step{netattach.OpEcho, rng.Uint64() & netattach.PayloadMask}
			case 1:
				s.Steps[j] = Step{netattach.OpSum, uint64(rng.Intn(1 << 20))}
			default:
				s.Steps[j] = Step{netattach.OpSpin, uint64(rng.Intn(256))}
			}
		}
		scripts[i] = s
	}
	return scripts
}

// MemConfig returns the memory geometry Boot gives a system serving sc.
// A restore of a checkpoint taken under this geometry must be handed the
// same shape (core.Restore checks the page size; the frame counts govern
// paging behavior, not correctness).
func MemConfig(sc *Scenario) mem.Config {
	frames := 4 * sc.sessions
	if frames < 4096 {
		frames = 4096
	}
	mc := mem.DefaultConfig()
	mc.CoreFrames = frames
	mc.BulkBlocks = frames
	mc.Backing = sc.backing
	return mc
}

// RegisterUsers registers sc's accounts with sys. Boot calls it; a
// system restored from a checkpoint needs it again, because the
// answering service's user registry is deliberately outside the
// checkpoint.
func RegisterUsers(sys *multics.System, sc *Scenario) error {
	plan, err := sc.Plan()
	if err != nil {
		return err
	}
	for _, a := range plan.Accounts {
		if err := sys.AddUser(a.Person, a.Project, a.Password, a.Clearance); err != nil {
			return err
		}
	}
	return nil
}

// Boot builds a system at the given stage with memory scaled for the
// scenario's session count, and registers its accounts.
func Boot(stage multics.Stage, sc *Scenario) (*multics.System, error) {
	if _, err := sc.Plan(); err != nil {
		return nil, err
	}
	mc := MemConfig(sc)
	sys, err := multics.NewWithConfig(core.Config{Stage: stage, Mem: &mc, Faults: sc.faults})
	if err != nil {
		return nil, err
	}
	if err := RegisterUsers(sys, sc); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return sys, nil
}

// frontend returns sys's front-end, serving one if none is up.
func frontend(sys *multics.System, conns int) (*netattach.Frontend, error) {
	if fe := sys.Frontend(); fe != nil {
		return fe, nil
	}
	workers := 4
	if conns >= 64 {
		workers = 8
	}
	return sys.Serve(netattach.Config{Workers: workers, MaxConns: conns})
}

// Tally is one session's side of a replay transcript: its request
// counters and the running sha256 of its replies. The single-kernel
// driver and fleet.Run both keep one per session and fold them with
// SessionDigest, so the two encode a transcript identically and their
// session digests compare byte for byte.
type Tally struct {
	Sent, Received, Throttled int64
	h                         hash.Hash
}

// NewTally returns an empty tally.
func NewTally() Tally { return Tally{h: sha256.New()} }

// Send fires step st on c. An accepted send counts as sent and a send
// refused at the high-water mark counts as throttled; any other error
// is returned.
func (t *Tally) Send(c *netattach.Conn, st Step) error {
	err := c.Send(st.Op, st.Arg)
	switch {
	case err == nil:
		t.Sent++
	case errors.Is(err, netattach.ErrThrottled):
		t.Throttled++
	default:
		return err
	}
	return nil
}

// Drain reads every reply waiting on c and folds each into session i's
// transcript.
func (t *Tally) Drain(c *netattach.Conn, i int) error {
	for {
		v, ok, err := c.TryRecv()
		if err != nil || !ok {
			return err
		}
		t.Received++
		fmt.Fprintf(t.h, "%d %d\n", i, v)
	}
}

// SessionDigest folds the sessions' transcript digests in session
// order: the witness that compares runs across kernel counts and
// migration cadences.
func SessionDigest(ts []Tally) string {
	h := sha256.New()
	for i := range ts {
		foldSession(h, i, &ts[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func foldSession(w io.Writer, i int, t *Tally) {
	fmt.Fprintf(w, "session %d %x\n", i, t.h.Sum(nil))
}

// dial queues a login for every script before the listener process runs
// once, so attach latency spreads across the accept queue, then lets
// the front-end attach them all.
func dial(fe *netattach.Frontend, scripts []Script) ([]*netattach.Conn, error) {
	conns := make([]*netattach.Conn, len(scripts))
	for i, s := range scripts {
		c, err := fe.DialAsync(s.Person, s.Project, s.Password, s.Level)
		if err != nil {
			return nil, fmt.Errorf("workload: dial %d: %w", i, err)
		}
		conns[i] = c
	}
	fe.Flush()
	return conns, nil
}

// replay is the driver's round loop. Each round, every live session
// with a burst due fires the part of it that falls inside the step
// window [lo, hi) back-to-back. Nothing pumps the scheduler during this
// storm, so requests pile up in the kernel buffers — the legacy rings
// overwrite, the S5 infinite buffers grow. Then the front-end is
// flushed and every live session's replies are drained in session
// order. A session is live while its errs entry is nil; a send or
// receive error sets it.
func replay(fe *netattach.Frontend, plan *Plan, conns []*netattach.Conn, ts []Tally, errs []error, lo, hi int) {
	next := make([]int, len(conns))
	for round := 0; round < plan.Rounds; round++ {
		active := false
		for i, c := range conns {
			ws := plan.Windows[i]
			if errs[i] != nil || next[i] >= len(ws) || ws[next[i]].Round != round {
				continue
			}
			w := ws[next[i]]
			next[i]++
			for s := max(w.Lo, lo); s < min(w.Hi, hi); s++ {
				active = true
				if err := ts[i].Send(c, plan.Scripts[i].Steps[s]); err != nil {
					errs[i] = fmt.Errorf("workload: send %d/%d: %w", i, s, err)
				}
			}
		}
		if !active {
			continue
		}
		fe.Flush()
		for i, c := range conns {
			if errs[i] != nil {
				continue
			}
			if err := ts[i].Drain(c, i); err != nil {
				errs[i] = fmt.Errorf("workload: recv %d: %w", i, err)
			}
		}
	}
}

// Run replays the scenario against sys: dial every session, fire the
// compiled burst schedule round by round, drain replies between bursts,
// log every session out, and report. Under a fault plan a session that
// fails is counted in Report.Failed; without one its error ends the run.
func Run(sys *multics.System, sc *Scenario) (*Report, error) {
	plan, err := sc.Plan()
	if err != nil {
		return nil, err
	}
	fe, err := frontend(sys, len(plan.Scripts))
	if err != nil {
		return nil, err
	}
	// The canonical trace collector sees every lifecycle event the run
	// produces; a caller-supplied trace sink rides along as a tee.
	tc := &traceCollector{tee: sc.sink, byID: make(map[uint64][]trace.Event)}
	fe.SetSink(tc)
	defer fe.SetSink(nil)

	start := sys.Kernel.Services().Clock.Now()
	conns, err := dial(fe, plan.Scripts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Scenario: sc.name, Conns: len(conns), Steps: plan.MaxSteps()}
	ts := make([]Tally, len(conns))
	errs := make([]error, len(conns))
	dead := make([]bool, len(conns))
	for i, c := range conns {
		ts[i] = NewTally()
		if c.State() != netattach.StateAttached {
			if sc.faults == nil {
				return nil, fmt.Errorf("workload: connection %d not attached: %v (%v)",
					i, c.State(), c.Err())
			}
			dead[i] = true
			rep.Failed++
			errs[i] = fmt.Errorf("workload: connection %d never attached", i)
		}
	}

	replay(fe, plan, conns, ts, errs, 0, plan.MaxSteps())
	for i, t := range ts {
		if errs[i] != nil {
			if sc.faults == nil {
				return nil, errs[i]
			}
			if !dead[i] {
				// Already counted when the attach failed; count fresh
				// session failures here.
				rep.Failed++
				dead[i] = true
			}
			continue
		}
		rep.Sent += t.Sent
		rep.Received += t.Received
		rep.Throttled += t.Throttled
	}

	// Logout in table order.
	for i, c := range conns {
		if err := c.Close(); err != nil && sc.faults == nil {
			return nil, fmt.Errorf("workload: close %d: %w", i, err)
		}
	}

	rep.Stats = fe.Stats()
	rep.Cycles = sys.Kernel.Services().Clock.Now() - start
	if rep.Cycles > 0 {
		rep.Throughput = float64(rep.Stats.Processed) / float64(rep.Cycles) * 1000
	}
	// Fold the per-connection digests in fixed table order, then the
	// run-wide counters: the determinism witness.
	h := sha256.New()
	for i, t := range ts {
		fmt.Fprintf(h, "conn %d %x sent %d received %d throttled %d dead %v\n",
			i, t.h.Sum(nil), t.Sent, t.Received, t.Throttled, dead[i])
	}
	fmt.Fprintf(h, "sent %d received %d throttled %d failed %d lost %d/%d drops %d\n",
		rep.Sent, rep.Received, rep.Throttled, rep.Failed,
		rep.Stats.InputLost, rep.Stats.ReplyLost, rep.Stats.ReplyDrops)
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rep.SessionDigest = SessionDigest(ts)
	rep.ScheduleDigest = plan.ScheduleDigest()
	rep.TraceDigest = tc.digest()

	// Per-persona breakdown: sessions are grouped by plan persona,
	// attach latencies (fixed under the single-threaded login flush) are
	// ranked for percentiles, and the sections are sorted by name so the
	// JSON and terminal renderings are byte-identical across runs.
	byName := map[string]*PersonaReport{}
	attach := map[string][]int64{}
	for i, t := range ts {
		name := plan.Personas[i]
		pr := byName[name]
		if pr == nil {
			pr = &PersonaReport{Name: name}
			byName[name] = pr
		}
		pr.Sessions++
		pr.Sent += t.Sent
		pr.Received += t.Received
		pr.Throttled += t.Throttled
		if dead[i] {
			pr.Failed++
		} else {
			attach[name] = append(attach[name], conns[i].AttachLatency())
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr := byName[name]
		if ls := attach[name]; len(ls) > 0 {
			sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
			pr.AttachP50 = ls[len(ls)*50/100]
			pr.AttachP99 = ls[len(ls)*99/100]
		}
		ph := sha256.New()
		for i := range ts {
			if plan.Personas[i] == name {
				foldSession(ph, i, &ts[i])
			}
		}
		pr.Digest = hex.EncodeToString(ph.Sum(nil))
		rep.Personas = append(rep.Personas, *pr)
	}

	// Fold the session outcomes into the kernel's unified metrics
	// registry.
	reg := sys.Kernel.Services().Metrics
	reg.Counter("workload.sessions").Add(int64(rep.Conns))
	reg.Counter("workload.failed").Add(rep.Failed)
	reg.Counter("workload.sent").Add(rep.Sent)
	reg.Counter("workload.received").Add(rep.Received)
	reg.Counter("workload.throttled").Add(rep.Throttled)
	for _, pr := range rep.Personas {
		prefix := "workload.persona." + pr.Name
		reg.Counter(prefix + ".sessions").Add(int64(pr.Sessions))
		reg.Counter(prefix + ".sent").Add(pr.Sent)
		reg.Counter(prefix + ".received").Add(pr.Received)
		reg.Counter(prefix + ".failed").Add(pr.Failed)
	}
	return rep, nil
}

// traceCollector is the engine's canonical trace consumer: it groups
// the front-end's lifecycle events by connection id and optionally tees
// the raw stream to a caller-supplied sink. The front-end serializes
// emission under its own lock, but the collector carries its own mutex
// so it is a valid trace.Sink regardless of who calls it.
type traceCollector struct {
	mu   sync.Mutex
	tee  trace.Sink
	byID map[uint64][]trace.Event
}

func (tc *traceCollector) Record(ev trace.Event) {
	tc.mu.Lock()
	tc.byID[ev.Subject] = append(tc.byID[ev.Subject], ev)
	tc.mu.Unlock()
	if tc.tee != nil {
		tc.tee.Record(ev)
	}
}

// digest folds the per-connection event streams in ascending
// connection-id order. Within a connection the stream is FIFO (attach
// happens under the single-threaded Flush, requests drain in input
// order, drain/close fire in table order), so the result does not
// depend on how the front-end's worker processes interleave
// connections.
func (tc *traceCollector) digest() string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ids := make([]uint64, 0, len(tc.byID))
	for id := range tc.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		for _, ev := range tc.byID[id] {
			fmt.Fprintf(h, "%d %v %s %d %d %v %s\n",
				id, ev.Stage, ev.Name, ev.Arg, ev.Cost, ev.Outcome, ev.Detail)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RunAt boots a fresh system at the stage, runs the scenario, shuts the
// system down, and returns the report: the one-call form used by
// cmd/loadgen and the experiments.
func RunAt(stage multics.Stage, sc *Scenario) (*Report, error) {
	sys, err := Boot(stage, sc)
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	return Run(sys, sc)
}
