package auth

import (
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mls"
)

func reg(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if err := r.AddUser("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Secret, "nato")); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAddUserValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.AddUser("", "p", "longpw", mls.NewLabel(mls.Unclassified)); err == nil {
		t.Error("empty person should fail")
	}
	if err := r.AddUser("x", "", "longpw", mls.NewLabel(mls.Unclassified)); err == nil {
		t.Error("empty project should fail")
	}
	if err := r.AddUser("x", "p", "abc", mls.NewLabel(mls.Unclassified)); !errors.Is(err, ErrWeakPassword) {
		t.Errorf("weak password = %v", err)
	}
	if err := r.AddUser("x", "p", "abcd", mls.NewLabel(mls.Unclassified)); err != nil {
		t.Fatal(err)
	}
	if err := r.AddUser("X", "p2", "abcd", mls.NewLabel(mls.Unclassified)); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("case-insensitive duplicate = %v", err)
	}
}

func TestAuthenticate(t *testing.T) {
	r := reg(t)
	if err := r.Authenticate("Schroeder", "multics75"); err != nil {
		t.Errorf("good password: %v", err)
	}
	if err := r.Authenticate("schroeder", "multics75"); err != nil {
		t.Errorf("case-insensitive person: %v", err)
	}
	if err := r.Authenticate("Schroeder", "wrong"); !errors.Is(err, ErrBadPassword) {
		t.Errorf("bad password = %v", err)
	}
	if err := r.Authenticate("Nobody", "x"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user = %v", err)
	}
}

func TestLockoutAfterRepeatedFailures(t *testing.T) {
	r := reg(t)
	for i := 0; i < MaxFailures; i++ {
		if err := r.Authenticate("Schroeder", "nope"); !errors.Is(err, ErrBadPassword) {
			t.Fatalf("attempt %d = %v", i, err)
		}
	}
	if err := r.Authenticate("Schroeder", "multics75"); !errors.Is(err, ErrAccountDisabled) {
		t.Errorf("after lockout = %v", err)
	}
}

func TestFailureCounterResetsOnSuccess(t *testing.T) {
	r := reg(t)
	for i := 0; i < MaxFailures-1; i++ {
		_ = r.Authenticate("Schroeder", "nope")
	}
	if err := r.Authenticate("Schroeder", "multics75"); err != nil {
		t.Fatalf("success before lockout: %v", err)
	}
	// Counter reset: more failures allowed again.
	for i := 0; i < MaxFailures-1; i++ {
		_ = r.Authenticate("Schroeder", "nope")
	}
	if err := r.Authenticate("Schroeder", "multics75"); err != nil {
		t.Errorf("counter did not reset: %v", err)
	}
}

func TestLoginHappyPath(t *testing.T) {
	r := reg(t)
	created := 0
	svc := NewService(Subsystem, r, func(s Session) error { created++; return nil }, metrics.New())
	sess, err := svc.Login("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Secret, "nato"))
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	if sess.Principal.String() != "Schroeder.CSR.a" {
		t.Errorf("principal = %v", sess.Principal)
	}
	if created != 1 || svc.LoginCount() != 1 {
		t.Errorf("created=%d logins=%d", created, svc.LoginCount())
	}
}

func TestLoginAtLowerLabel(t *testing.T) {
	r := reg(t)
	svc := NewService(Subsystem, r, nil, metrics.New())
	if _, err := svc.Login("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Unclassified)); err != nil {
		t.Errorf("login below clearance: %v", err)
	}
}

func TestLoginRejections(t *testing.T) {
	r := reg(t)
	svc := NewService(Privileged, r, nil, metrics.New())
	if _, err := svc.Login("Schroeder", "CSR", "bad", mls.NewLabel(mls.Unclassified)); !errors.Is(err, ErrBadPassword) {
		t.Errorf("bad pw = %v", err)
	}
	if _, err := svc.Login("Schroeder", "Mitre", "multics75", mls.NewLabel(mls.Unclassified)); !errors.Is(err, ErrWrongProject) {
		t.Errorf("wrong project = %v", err)
	}
	if _, err := svc.Login("Schroeder", "CSR", "multics75", mls.NewLabel(mls.TopSecret)); !errors.Is(err, ErrClearance) {
		t.Errorf("over clearance = %v", err)
	}
	if svc.FailureCount() != 3 {
		t.Errorf("failures = %d", svc.FailureCount())
	}
}

func TestAddProject(t *testing.T) {
	r := reg(t)
	if err := r.AddProject("Schroeder", "Mitre"); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Subsystem, r, nil, metrics.New())
	if _, err := svc.Login("Schroeder", "Mitre", "multics75", mls.NewLabel(mls.Unclassified)); err != nil {
		t.Errorf("second project login: %v", err)
	}
	if err := r.AddProject("Ghost", "X"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("AddProject unknown = %v", err)
	}
}

func TestClearanceLookup(t *testing.T) {
	r := reg(t)
	c, err := r.Clearance("Schroeder")
	if err != nil || !c.Equal(mls.NewLabel(mls.Secret, "nato")) {
		t.Errorf("clearance = %v, %v", c, err)
	}
	if _, err := r.Clearance("Ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown clearance = %v", err)
	}
}

func TestPlacementChangesKernelFootprintNotBehaviour(t *testing.T) {
	r := reg(t)
	priv := NewService(Privileged, r, nil, metrics.New())
	sub := NewService(Subsystem, r, nil, metrics.New())
	if priv.KernelCodeUnits() <= sub.KernelCodeUnits() {
		t.Errorf("privileged placement (%d units) must carry more kernel code than subsystem (%d)",
			priv.KernelCodeUnits(), sub.KernelCodeUnits())
	}
	// Identical observable behaviour in both placements.
	s1, err1 := priv.Login("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Unclassified))
	s2, err2 := sub.Login("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Unclassified))
	if err1 != nil || err2 != nil || s1.Principal != s2.Principal {
		t.Errorf("placements diverge: %v/%v %v/%v", s1, err1, s2, err2)
	}
}

func TestCreateProcessFailurePropagates(t *testing.T) {
	r := reg(t)
	boom := errors.New("no process slots")
	svc := NewService(Subsystem, r, func(Session) error { return boom }, metrics.New())
	if _, err := svc.Login("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Unclassified)); !errors.Is(err, boom) {
		t.Errorf("create failure = %v", err)
	}
}
