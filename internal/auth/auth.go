// Package auth implements the answering service: user registration,
// authentication, and login.
//
// The paper's removal idea: entering a protected subsystem and creating a
// logged-in process are mechanically the same act, so "the large collection
// of privileged, protected code used to authenticate and log in users would
// become non-privileged code". The Service type therefore runs in one of
// two placements — Privileged (the baseline, where all of this code counts
// toward the kernel) and Subsystem (the post-removal configuration, where
// the same code runs as an unprivileged protected subsystem and the kernel
// retains only a create-process gate).
package auth

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/acl"
	"repro/internal/metrics"
	"repro/internal/mls"
)

// Placement records where the answering service executes.
type Placement int

// Service placements.
const (
	// Privileged: the login machinery is part of the kernel (baseline).
	Privileged Placement = iota
	// Subsystem: the login machinery is an unprivileged protected
	// subsystem entered through the same mechanism as any other (S4+).
	Subsystem
)

func (p Placement) String() string {
	if p == Subsystem {
		return "protected-subsystem"
	}
	return "privileged"
}

// Errors returned by the answering service.
var (
	ErrUnknownUser     = errors.New("auth: unknown user")
	ErrBadPassword     = errors.New("auth: incorrect password")
	ErrWrongProject    = errors.New("auth: user not registered on project")
	ErrClearance       = errors.New("auth: requested label exceeds clearance")
	ErrWeakPassword    = errors.New("auth: password too short")
	ErrDuplicateUser   = errors.New("auth: user already registered")
	ErrAccountDisabled = errors.New("auth: account disabled after repeated failures")
)

// MaxFailures disables an account after this many consecutive bad
// passwords.
const MaxFailures = 5

// minPasswordLen is the weakest password the registry accepts.
const minPasswordLen = 4

type user struct {
	person    string
	projects  map[string]bool
	hash      uint64
	clearance mls.Label
	failures  int
	disabled  bool
}

// hashPassword is a deterministic non-cryptographic hash, standing in for
// the one-way password transformation of the real system (stdlib-only
// constraint; real deployments would use a KDF).
func hashPassword(pw string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(pw))
	return h.Sum64()
}

// Registry is the user data base of the answering service. All methods are
// safe for concurrent use: the network attachment front-end authenticates
// many connections in parallel, and failure lockout counts must stay exact
// under that load.
type Registry struct {
	mu    sync.Mutex
	users map[string]*user
}

// NewRegistry returns an empty user registry.
func NewRegistry() *Registry { return &Registry{users: make(map[string]*user)} }

// AddUser registers person on project with the given password and
// clearance.
func (r *Registry) AddUser(person, project, password string, clearance mls.Label) error {
	if person == "" || project == "" {
		return errors.New("auth: empty person or project")
	}
	if len(password) < minPasswordLen {
		return ErrWeakPassword
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.users[strings.ToLower(person)]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateUser, person)
	}
	r.users[strings.ToLower(person)] = &user{
		person:    person,
		projects:  map[string]bool{project: true},
		hash:      hashPassword(password),
		clearance: clearance,
	}
	return nil
}

// AddProject registers an existing user on an additional project.
func (r *Registry) AddProject(person, project string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	u.projects[project] = true
	return nil
}

// Authenticate verifies the password, maintaining the failure lockout.
func (r *Registry) Authenticate(person, password string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.authenticateLocked(person, password)
}

// authenticateLocked is Authenticate with r.mu already held, so compound
// operations (password change, login) can verify-then-act atomically.
func (r *Registry) authenticateLocked(person, password string) error {
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	if u.disabled {
		return fmt.Errorf("%w: %s", ErrAccountDisabled, person)
	}
	if u.hash != hashPassword(password) {
		u.failures++
		if u.failures >= MaxFailures {
			u.disabled = true
		}
		return ErrBadPassword
	}
	u.failures = 0
	return nil
}

// ChangePassword replaces person's password after verifying the old one.
// Verification and replacement happen under one critical section, so a
// login racing the change sees either the old password or the new one,
// never a torn intermediate.
func (r *Registry) ChangePassword(person, oldPassword, newPassword string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.authenticateLocked(person, oldPassword); err != nil {
		return err
	}
	if len(newPassword) < minPasswordLen {
		return ErrWeakPassword
	}
	r.users[strings.ToLower(person)].hash = hashPassword(newPassword)
	return nil
}

// Clearance returns the registered clearance of person.
func (r *Registry) Clearance(person string) (mls.Label, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return mls.Label{}, fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	return u.clearance, nil
}

// UserInfo returns the canonical (registered) spelling of person's name and
// their clearance, for callers that authenticated with a case-folded name.
func (r *Registry) UserInfo(person string) (string, mls.Label, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return "", mls.Label{}, fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	return u.person, u.clearance, nil
}

// CheckProject reports whether person is registered on project.
func (r *Registry) CheckProject(person, project string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	if !u.projects[project] {
		return fmt.Errorf("%w: %s on %s", ErrWrongProject, person, project)
	}
	return nil
}

// Session is the result of a successful login: the principal identity and
// the mandatory label the new process runs at.
type Session struct {
	Principal acl.Principal
	Label     mls.Label
}

// ProcessCreator is the single kernel function that remains privileged in
// the Subsystem placement: create a process for an authenticated principal.
// The kernel implementation also counts invocations, which lets the
// experiments show login working identically in both placements.
type ProcessCreator func(s Session) error

// Service is the answering service. Login may be called from many
// goroutines at once.
type Service struct {
	Placement Placement
	registry  *Registry
	create    ProcessCreator

	// logins and failures count outcomes as auth.logins and
	// auth.login_failures in the metrics registry.
	logins, failures *metrics.Counter
}

// NewService returns an answering service in the given placement, counting
// its outcomes in reg (the kernel's unified registry).
func NewService(placement Placement, registry *Registry, create ProcessCreator, reg *metrics.Registry) *Service {
	return &Service{
		Placement: placement,
		registry:  registry,
		create:    create,
		logins:    reg.Counter("auth.logins"),
		failures:  reg.Counter("auth.login_failures"),
	}
}

// Login authenticates person/password, validates the project and the
// requested label against the clearance, and creates the process.
func (s *Service) Login(person, project, password string, requested mls.Label) (Session, error) {
	fail := func(err error) (Session, error) {
		s.failures.Inc()
		return Session{}, err
	}
	if err := s.registry.Authenticate(person, password); err != nil {
		return fail(err)
	}
	canonical, clearance, err := s.registry.UserInfo(person)
	if err != nil {
		return fail(err)
	}
	if err := s.registry.CheckProject(person, project); err != nil {
		return fail(err)
	}
	if !clearance.Dominates(requested) {
		return fail(fmt.Errorf("%w: %v above %v", ErrClearance, requested, clearance))
	}
	sess := Session{
		Principal: acl.Principal{Person: canonical, Project: project, Tag: "a"},
		Label:     requested,
	}
	if s.create != nil {
		if err := s.create(sess); err != nil {
			return fail(fmt.Errorf("auth: creating process: %w", err))
		}
	}
	s.logins.Inc()
	return sess, nil
}

// LoginCount returns the number of successful logins.
func (s *Service) LoginCount() int64 { return s.logins.Value() }

// FailureCount returns the number of failed logins.
func (s *Service) FailureCount() int64 { return s.failures.Value() }

// KernelCodeUnits reports how much of the answering service counts as
// protected kernel code in this placement: everything when privileged, only
// the create-process gate when demoted to a subsystem.
func (s *Service) KernelCodeUnits() int {
	if s.Placement == Privileged {
		return loginCodeUnits + createProcessUnits
	}
	return createProcessUnits
}

// Code-size contributions, in the same arbitrary units as the gate
// registry: the paper calls the login machinery "the large collection of
// privileged, protected code".
const (
	loginCodeUnits     = 30
	createProcessUnits = 4
)
