package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/multics"
)

// Scenario composes weighted persona mixes into one runnable traffic
// shape. Build one with NewScenario, chain the configuration methods,
// and hand it to Boot/Run/RunAt (single kernel) or fleet.Run (sharded).
// Every decision a scenario makes — which session belongs to which
// persona, what its script says, when each burst fires — is a pure
// function of the seed, so the compiled Plan and the transcript digests
// it produces are byte-identical at any kernel count.
type Scenario struct {
	name     string
	seed     int64
	sessions int
	mix      []mixEntry
	open     bool
	openGap  int
	sink     trace.Sink
	backing  mem.BackingStore
	faults   *faults.Spec

	plan    *Plan
	planErr error
}

type mixEntry struct {
	p      Persona
	weight int
}

// NewScenario starts a scenario named name, seeded with seed. The
// default shape is 8 sessions, closed-loop arrival.
func NewScenario(name string, seed int64) *Scenario {
	return &Scenario{name: name, seed: seed, sessions: 8}
}

// Mix adds weight shares of persona p to the scenario. Weights are
// relative: sessions are split proportionally across the mix.
func (sc *Scenario) Mix(p Persona, weight int) *Scenario {
	sc.mix = append(sc.mix, mixEntry{p: p, weight: weight})
	sc.plan = nil
	return sc
}

// Sessions sets the total number of concurrent sessions.
func (sc *Scenario) Sessions(n int) *Scenario { sc.sessions = n; sc.plan = nil; return sc }

// OpenLoop selects the open-loop arrival model: sessions arrive over
// time, each delayed by a seeded gap of up to 2*meanGap engine rounds
// from the previous arrival, independent of how fast the system drains
// them. meanGap 0 degenerates to everyone arriving at round zero.
func (sc *Scenario) OpenLoop(meanGap int) *Scenario {
	sc.open, sc.openGap = true, meanGap
	sc.plan = nil
	return sc
}

// ClosedLoop selects the closed-loop arrival model (the default): a
// fixed population of sessions is present from the start, each pacing
// itself with its persona's think-time between bursts.
func (sc *Scenario) ClosedLoop() *Scenario { sc.open, sc.openGap = false, 0; sc.plan = nil; return sc }

// Trace tees the front-end's attachment-lifecycle trace stream to sink.
func (sc *Scenario) Trace(sink trace.Sink) *Scenario { sc.sink = sink; return sc }

// Backing threads a durable backing store under the booted kernel's
// memory hierarchy (see Boot); nil keeps the volatile default.
func (sc *Scenario) Backing(bs mem.BackingStore) *Scenario { sc.backing = bs; return sc }

// Faults boots the system with a deterministic fault plan and switches
// the engine into survival mode: sessions that die are counted in
// Report.Failed instead of aborting the run.
func (sc *Scenario) Faults(spec *faults.Spec) *Scenario { sc.faults = spec; return sc }

// Name returns the scenario's name.
func (sc *Scenario) Name() string { return sc.name }

// Seed returns the scenario's seed.
func (sc *Scenario) Seed() int64 { return sc.seed }

// Account is one principal a scenario's sessions log in as.
type Account struct {
	Person, Project, Password string
	Clearance                 multics.Level
}

// Window is one scheduled activation of a session: at engine round
// Round, fire script steps [Lo, Hi) back-to-back.
type Window struct {
	Round, Lo, Hi int
}

// Plan is a compiled scenario: every script, account, persona
// assignment and burst schedule, fixed before the first dial. It is a
// pure function of the scenario (same seed, same Plan), which is what
// lets fleet.Run and the single-kernel engine replay the identical
// workload.
type Plan struct {
	// Scripts holds one session script per connection.
	Scripts []Script
	// Personas names the persona behind each session, parallel to
	// Scripts.
	Personas []string
	// Windows is each session's burst schedule, parallel to Scripts,
	// rounds ascending.
	Windows [][]Window
	// Accounts are the principals to register before attaching.
	Accounts []Account
	// Rounds is the number of engine rounds the schedule spans.
	Rounds int
}

// Plan compiles the scenario (idempotent: the plan is cached).
func (sc *Scenario) Plan() (*Plan, error) {
	if sc.plan == nil && sc.planErr == nil {
		sc.plan, sc.planErr = sc.compile()
	}
	return sc.plan, sc.planErr
}

func (sc *Scenario) compile() (*Plan, error) {
	if sc.sessions < 1 {
		return nil, fmt.Errorf("workload: scenario %q: %d sessions", sc.name, sc.sessions)
	}
	if sc.openGap < 0 {
		return nil, fmt.Errorf("workload: scenario %q: negative arrival gap %d", sc.name, sc.openGap)
	}
	if len(sc.mix) == 0 {
		return nil, fmt.Errorf("workload: scenario %q has no personas; call Mix", sc.name)
	}
	totalW := 0
	seen := map[string]bool{}
	for i := range sc.mix {
		if sc.mix[i].weight <= 0 {
			return nil, fmt.Errorf("workload: scenario %q: persona %q weight %d (weights must be positive)",
				sc.name, sc.mix[i].p.Name, sc.mix[i].weight)
		}
		totalW += sc.mix[i].weight
		if seen[sc.mix[i].p.Name] {
			return nil, fmt.Errorf("workload: scenario %q: duplicate persona %q", sc.name, sc.mix[i].p.Name)
		}
		seen[sc.mix[i].p.Name] = true
	}

	// Split sessions across the mix by cumulative proportion (largest
	// block first, remainders to the earliest personas): deterministic
	// and exact. Each persona gets a contiguous block of session ids.
	counts := make([]int, len(sc.mix))
	cum, prev := 0, 0
	for i := range sc.mix {
		cum += sc.mix[i].weight
		hi := sc.sessions * cum / totalW
		counts[i] = hi - prev
		prev = hi
	}

	p := &Plan{
		Scripts:  make([]Script, 0, sc.sessions),
		Personas: make([]string, 0, sc.sessions),
		Windows:  make([][]Window, 0, sc.sessions),
	}
	// Open-loop arrivals: a seeded gap between consecutive session
	// starts, accumulated in global session order.
	arrive := make([]int, sc.sessions)
	if sc.open && sc.openGap > 0 {
		at := 0
		for i := range arrive {
			at += int(hashChain(uint64(sc.seed), hashName(sc.name), uint64(i), 4) % uint64(2*sc.openGap+1))
			arrive[i] = at
		}
	}

	global := 0
	for mi := range sc.mix {
		pe := sc.mix[mi].p
		if counts[mi] == 0 {
			continue
		}
		if err := pe.setDefaults(counts[mi]); err != nil {
			return nil, err
		}
		var legacyScripts []Script
		if pe.legacy {
			legacyScripts = genScripts(&pe, counts[mi], sc.seed)
		}
		for s := 0; s < counts[mi]; s++ {
			var script Script
			if pe.legacy {
				script = legacyScripts[s]
			} else {
				u := s % pe.Users
				script = Script{
					Person:   fmt.Sprintf("%s%d", pe.Name, u),
					Project:  "Traffic",
					Password: fmt.Sprintf("%s%d pw", pe.Name, u),
					Level:    pe.Levels[s%len(pe.Levels)],
					Steps:    make([]Step, pe.Steps),
				}
				for j := range script.Steps {
					script.Steps[j] = pe.step(sc.seed, s, j)
				}
			}
			round := arrive[global]
			var ws []Window
			for b, base := 0, 0; base < pe.Steps; b, base = b+1, base+pe.Burst {
				hi := base + pe.Burst
				if hi > pe.Steps {
					hi = pe.Steps
				}
				ws = append(ws, Window{Round: round, Lo: base, Hi: hi})
				round += pe.thinkGap(sc.seed, s, b)
			}
			p.Scripts = append(p.Scripts, script)
			p.Personas = append(p.Personas, pe.Name)
			p.Windows = append(p.Windows, ws)
			if round > p.Rounds {
				p.Rounds = round
			}
			global++
		}
		// Register one block of accounts per persona, cleared to
		// dominate every level its sessions use.
		if pe.legacy {
			for u := 0; u < pe.Users; u++ {
				p.Accounts = append(p.Accounts, Account{
					Person:    fmt.Sprintf("Load%d", u),
					Project:   "Traffic",
					Password:  fmt.Sprintf("storm%d pw", u),
					Clearance: multics.Secret,
				})
			}
		} else {
			for u := 0; u < pe.Users; u++ {
				p.Accounts = append(p.Accounts, Account{
					Person:    fmt.Sprintf("%s%d", pe.Name, u),
					Project:   "Traffic",
					Password:  fmt.Sprintf("%s%d pw", pe.Name, u),
					Clearance: pe.clearance(),
				})
			}
		}
	}
	return p, nil
}

// ScheduleDigest folds every session's burst schedule in session order:
// the arrival-model determinism witness. It is computed from the Plan
// alone, so comparing it across runs at different kernel counts asserts
// the schedules — not just the replies — are identical.
func (p *Plan) ScheduleDigest() string {
	h := sha256.New()
	for i, ws := range p.Windows {
		for _, w := range ws {
			fmt.Fprintf(h, "sched %d %s %d %d %d\n", i, p.Personas[i], w.Round, w.Lo, w.Hi)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MaxSteps is the longest script in the plan.
func (p *Plan) MaxSteps() int {
	max := 0
	for i := range p.Scripts {
		if n := len(p.Scripts[i].Steps); n > max {
			max = n
		}
	}
	return max
}
