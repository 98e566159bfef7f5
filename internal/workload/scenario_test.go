package workload

import (
	"reflect"
	"testing"

	"repro/multics"
)

// TestStormerReproducesGenScripts pins the stormer contract: a stormer
// scenario compiles into exactly the scripts the historical generator
// produces — same accounts, same levels, same echo/sum/spin stream —
// with its bursts firing on consecutive rounds and min(sessions, 8)
// accounts registered.
func TestStormerReproducesGenScripts(t *testing.T) {
	const sessions, steps, burst = 12, 10, 4
	plan, err := NewScenario("storm", 75).Mix(Stormer(steps, burst, 0), 1).Sessions(sessions).Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := Stormer(steps, burst, 0)
	if err := want.setDefaults(sessions); err != nil {
		t.Fatal(err)
	}
	if want.Users != 8 {
		t.Fatalf("stormer defaulted to %d users, want min(%d, 8)", want.Users, sessions)
	}
	if !reflect.DeepEqual(plan.Scripts, genScripts(&want, sessions, 75)) {
		t.Fatal("stormer scripts differ from the historical generator's")
	}
	if len(plan.Accounts) != want.Users {
		t.Fatalf("got %d accounts, want %d", len(plan.Accounts), want.Users)
	}
	for i, ws := range plan.Windows {
		wantRound := 0
		for base := 0; base < steps; base += burst {
			hi := min(base+burst, steps)
			w := ws[wantRound]
			if w != (Window{Round: wantRound, Lo: base, Hi: hi}) {
				t.Fatalf("session %d window %d = %+v, want {%d %d %d}", i, wantRound, w, wantRound, base, hi)
			}
			wantRound++
		}
	}
}

// TestStormerDefaults pins the historical zero-value behavior: 8
// sessions, 8 steps, one whole-script burst, min(sessions, 8) users.
func TestStormerDefaults(t *testing.T) {
	plan, err := NewScenario("storm", 0).Mix(Stormer(0, 0, 0), 1).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scripts) != 8 || len(plan.Scripts[0].Steps) != 8 {
		t.Fatalf("defaults: %d conns × %d steps, want 8 × 8", len(plan.Scripts), len(plan.Scripts[0].Steps))
	}
	if len(plan.Windows[0]) != 1 {
		t.Fatalf("default burst should cover the whole script, got %d windows", len(plan.Windows[0]))
	}
	if len(plan.Accounts) != 8 {
		t.Fatalf("got %d accounts, want 8", len(plan.Accounts))
	}
}

func TestScenarioMixSplit(t *testing.T) {
	plan, err := NewScenario("split", 1).
		Mix(InteractiveEditor(), 3).
		Mix(BatchCompiler(), 1).
		Sessions(8).Plan()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, name := range plan.Personas {
		counts[name]++
	}
	if counts["editor"] != 6 || counts["compiler"] != 2 {
		t.Fatalf("3:1 split of 8 sessions = %v, want editor 6 compiler 2", counts)
	}
}

func TestScenarioTenantLevelsAlternate(t *testing.T) {
	plan, err := NewScenario("tenants", 9).Mix(TenantPair(), 1).Sessions(4).Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Scripts {
		want := multics.Unclassified
		if i%2 == 1 {
			want = multics.Secret
		}
		if s.Level != want {
			t.Fatalf("tenant session %d at level %v, want %v", i, s.Level, want)
		}
	}
	// Accounts must be cleared to dominate the highest session level.
	for _, a := range plan.Accounts {
		if a.Clearance != multics.Secret {
			t.Fatalf("tenant account %s cleared at %v, want Secret", a.Person, a.Clearance)
		}
	}
}

func TestScenarioCompileErrors(t *testing.T) {
	cases := map[string]*Scenario{
		"no personas":   NewScenario("bad", 1),
		"zero weight":   NewScenario("bad", 1).Mix(Daemon(), 0),
		"negative mix":  NewScenario("bad", 1).Mix(Daemon(), -2),
		"duplicate":     NewScenario("bad", 1).Mix(Daemon(), 1).Mix(Daemon(), 1),
		"zero sessions": NewScenario("bad", 1).Mix(Daemon(), 1).Sessions(0),
		"negative gap":  NewScenario("bad", 1).Mix(Daemon(), 1).OpenLoop(-1),
		"unnamed":       NewScenario("bad", 1).Mix(Persona{Steps: 4}, 1),
	}
	for name, sc := range cases {
		if _, err := sc.Plan(); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

// TestPersonaStepsArePure asserts persona step generation is a pure
// seeded function: independent of call order and of other sessions.
func TestPersonaStepsArePure(t *testing.T) {
	p := InteractiveEditor()
	if err := p.setDefaults(16); err != nil {
		t.Fatal(err)
	}
	a := p.step(75, 3, 5)
	for j := 9; j >= 0; j-- {
		p.step(75, 7, j)
	}
	if b := p.step(75, 3, 5); a != b {
		t.Fatalf("step(75,3,5) = %+v then %+v", a, b)
	}
}
