package fleet

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/netattach"
	"repro/internal/workload"
)

// RunConfig shapes one fleet traffic run: the scenario (scripts,
// persona mix and burst schedule are compiled exactly as the
// single-kernel engine compiles them) plus the migration cadence.
type RunConfig struct {
	// Scenario is the workload to replay. Its Trace/Faults settings are
	// ignored — fault plans are per-member (Config.FaultRate). For the
	// classic storm shape use workload.Stormer with Users set to the
	// session count, so the router spreads principals across kernels
	// instead of piling one principal's sessions on one member.
	Scenario *workload.Scenario
	// MigrateEvery, when positive, migrates every session to the next
	// kernel (home+1 mod N) after every MigrateEvery bursts. Zero
	// disables migration.
	MigrateEvery int
}

// KernelLoad is one member's share of a run.
type KernelLoad struct {
	// Sessions is how many sessions the router homed on this kernel.
	Sessions int `json:"sessions"`
	// Processed is the requests this kernel executed during the run
	// (includes requests from sessions that migrated in).
	Processed int64 `json:"processed"`
	// Cycles is the virtual time this kernel's own clock advanced.
	Cycles int64 `json:"cycles"`
}

// RunReport is the outcome of one fleet traffic run.
type RunReport struct {
	Kernels int `json:"kernels"`
	Conns   int `json:"conns"`
	Steps   int `json:"steps"`

	Sent      int64 `json:"sent"`
	Received  int64 `json:"received"`
	Throttled int64 `json:"throttled"`
	// Failed counts sessions that died (attach failure, send/recv error,
	// or a migration whose fallback also failed).
	Failed int64 `json:"failed"`

	// Migrations/MigrationFailures count live moves during the run; a
	// failed migration leaves the session serving on its home kernel.
	Migrations        int64 `json:"migrations"`
	MigrationFailures int64 `json:"migration_failures"`

	// PerKernel is indexed by member.
	PerKernel []KernelLoad `json:"per_kernel"`

	// MaxCycles is the largest per-kernel virtual time: the fleet's
	// wall-clock analogue, since members tick independent clocks.
	MaxCycles int64 `json:"max_cycles"`
	// Throughput is total requests processed per thousand virtual
	// cycles of the busiest kernel — the figure that scales with N.
	Throughput float64 `json:"throughput"`

	// SessionDigest folds the per-session reply transcripts in session
	// order. It is a pure function of the scenario: byte-identical at
	// any kernel count and under any migration cadence — and equal to
	// the single-kernel engine's Report.SessionDigest for the same
	// scenario — as long as no request is throttled away (keep persona
	// bursts under the high-water mark).
	SessionDigest string `json:"session_digest"`
}

// Format renders the report for the terminal.
func (r RunReport) Format() string {
	s := fmt.Sprintf(
		"kernels %d  conns %d  steps %d  sent %d  received %d  throttled %d  failed %d\n"+
			"migrations %d  migration-failures %d  max-cycles %d  throughput %.2f req/kcy\n"+
			"session-digest %s\n",
		r.Kernels, r.Conns, r.Steps, r.Sent, r.Received, r.Throttled, r.Failed,
		r.Migrations, r.MigrationFailures, r.MaxCycles, r.Throughput, r.SessionDigest)
	for i, k := range r.PerKernel {
		s += fmt.Sprintf("kernel %d: sessions %d  processed %d  cycles %d\n",
			i, k.Sessions, k.Processed, k.Cycles)
	}
	return s
}

// Run replays the compiled scenario across the fleet: every session is
// routed to its home kernel, driven by its own goroutine through its
// burst schedule, optionally migrated between kernels mid-script, and
// its reply transcript hashed. Per-session transcripts are pure
// functions of the scripts, so SessionDigest is identical whether the
// fleet has 1 kernel or 16 and whether sessions migrated zero times or
// every burst — that is the tentpole claim E17 measures, and E21
// extends it to mixed persona schedules.
func Run(f *Fleet, cfg RunConfig) (*RunReport, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("fleet: RunConfig needs a Scenario")
	}
	plan, err := cfg.Scenario.Plan()
	if err != nil {
		return nil, err
	}
	if cfg.MigrateEvery < 0 {
		return nil, fmt.Errorf("fleet: negative migration cadence %d", cfg.MigrateEvery)
	}

	// Register the scenario's accounts fleet-wide (idempotence is not
	// needed: runs own their fleet).
	for _, a := range plan.Accounts {
		if err := f.AddUser(a.Person, a.Project, a.Password, a.Clearance); err != nil {
			return nil, err
		}
	}

	scripts := plan.Scripts
	n := f.Size()
	rep := &RunReport{Kernels: n, Conns: len(scripts), Steps: plan.MaxSteps(), PerKernel: make([]KernelLoad, n)}
	startCycles := make([]int64, n)
	startProcessed := make([]int64, n)
	for i := 0; i < n; i++ {
		m := f.Member(i)
		startCycles[i] = m.Sys.Kernel.Services().Clock.Now()
		startProcessed[i] = m.FE.Stats().Processed
	}
	migrationsBefore := f.mMigrations.Value()
	migFailuresBefore := f.mMigrationFailures.Value()

	// Attach in script order (deterministic routing trace), then hand
	// each session to its own goroutine.
	sessions := make([]*Session, len(scripts))
	for i, s := range scripts {
		sess, err := f.Attach(s.Person, s.Project, s.Password, s.Level)
		if err != nil {
			for _, prev := range sessions[:i] {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("fleet: attaching session %d: %w", i, err)
		}
		sessions[i] = sess
		rep.PerKernel[sess.Home()].Sessions++
	}

	// Each session's goroutine owns its tally and error slot; the fold
	// below walks them in session order.
	tallies := make([]workload.Tally, len(sessions))
	errs := make([]error, len(sessions))

	var wg sync.WaitGroup
	for i := range sessions {
		tallies[i] = workload.NewTally()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runSession(sessions[i], scripts[i], plan.Windows[i], &tallies[i], i, n, cfg.MigrateEvery)
		}(i)
	}
	wg.Wait()

	for i, t := range tallies {
		if errs[i] != nil {
			rep.Failed++
			continue
		}
		rep.Sent += t.Sent
		rep.Received += t.Received
		rep.Throttled += t.Throttled
		rep.Migrations += int64(sessions[i].Migrations())
	}

	for i := 0; i < n; i++ {
		m := f.Member(i)
		rep.PerKernel[i].Cycles = m.Sys.Kernel.Services().Clock.Now() - startCycles[i]
		rep.PerKernel[i].Processed = m.FE.Stats().Processed - startProcessed[i]
		if rep.PerKernel[i].Cycles > rep.MaxCycles {
			rep.MaxCycles = rep.PerKernel[i].Cycles
		}
	}
	var totalProcessed int64
	for i := range rep.PerKernel {
		totalProcessed += rep.PerKernel[i].Processed
	}
	if rep.MaxCycles > 0 {
		rep.Throughput = float64(totalProcessed) / float64(rep.MaxCycles) * 1000
	}
	// Consistency with the fleet counters (they also count moves from
	// sessions that later failed).
	if got := f.mMigrations.Value() - migrationsBefore; got > rep.Migrations {
		rep.Migrations = got
	}
	rep.MigrationFailures = f.mMigrationFailures.Value() - migFailuresBefore

	// The determinism witness: per-session digests folded in session
	// order, nothing else — counters, kernel count, and migration
	// cadence deliberately stay out so the digest compares across them
	// (and against workload.Report.SessionDigest).
	rep.SessionDigest = workload.SessionDigest(tallies)
	return rep, nil
}

// runSession drives session i through its burst schedule on its own
// goroutine: fire each burst, drain it, fold the replies into t, and
// migrate to the next of n kernels after every migrateEvery bursts.
// The session is closed before runSession returns.
func runSession(sess *Session, script workload.Script, ws []workload.Window, t *workload.Tally, i, n, migrateEvery int) (err error) {
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("fleet: session %d close: %w", i, cerr)
		}
	}()
	for burstNo, w := range ws {
		var sendErr error
		for s := w.Lo; s < w.Hi; s++ {
			if err := t.Send(sess.Conn(), script.Steps[s]); err != nil {
				sendErr = fmt.Errorf("fleet: session %d send %d: %w", i, s, err)
			}
		}
		if sendErr != nil {
			return sendErr
		}
		if err := sess.Conn().Drain(); err != nil {
			return fmt.Errorf("fleet: session %d drain: %w", i, err)
		}
		if err := t.Drain(sess.Conn(), i); err != nil {
			return fmt.Errorf("fleet: session %d recv: %w", i, err)
		}
		if migrateEvery > 0 && n > 1 && (burstNo+1)%migrateEvery == 0 {
			// A failed migration falls back to the home kernel and keeps
			// serving; only a dead fallback kills the session (surfaced by
			// the next send).
			if err := sess.Migrate((sess.Home() + 1) % n); errors.Is(err, netattach.ErrReplayMismatch) {
				return fmt.Errorf("fleet: session %d: %w", i, err)
			}
		}
	}
	return nil
}
