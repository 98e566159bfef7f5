package auth

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/acl"
	"repro/internal/metrics"
	"repro/internal/mls"
)

// Many goroutines log the same user in at once; every attempt must succeed
// and the counters must account for each exactly once.
func TestLoginConcurrent(t *testing.T) {
	r := NewRegistry()
	const users = 16
	names := make([]string, users)
	for i := range names {
		names[i] = "User" + string(rune('A'+i))
		if err := r.AddUser(names[i], "Proj", "password"+names[i], mls.NewLabel(mls.Secret)); err != nil {
			t.Fatal(err)
		}
	}
	var created int64
	var cmu sync.Mutex
	svc := NewService(Subsystem, r, func(s Session) error {
		cmu.Lock()
		created++
		cmu.Unlock()
		return nil
	}, metrics.New())
	const perUser = 32
	var wg sync.WaitGroup
	errs := make(chan error, users*perUser)
	for _, name := range names {
		for i := 0; i < perUser; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				sess, err := svc.Login(name, "Proj", "password"+name, mls.NewLabel(mls.Unclassified))
				if err != nil {
					errs <- err
					return
				}
				if sess.Principal.Person != name {
					errs <- errors.New("wrong principal " + sess.Principal.Person)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := svc.LoginCount(); got != users*perUser {
		t.Errorf("logins = %d, want %d", got, users*perUser)
	}
	if got := svc.FailureCount(); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}
	cmu.Lock()
	defer cmu.Unlock()
	if created != users*perUser {
		t.Errorf("create-process gate called %d times, want %d", created, users*perUser)
	}
}

// Wrong-password storms from many goroutines must produce an exact failure
// count and trip the lockout exactly at MaxFailures.
func TestConcurrentFailureLockout(t *testing.T) {
	r := reg(t)
	const attempts = 64
	var wg sync.WaitGroup
	results := make(chan error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- r.Authenticate("Schroeder", "wrong-password")
		}()
	}
	wg.Wait()
	close(results)
	var bad, disabled int
	for err := range results {
		switch {
		case errors.Is(err, ErrBadPassword):
			bad++
		case errors.Is(err, ErrAccountDisabled):
			disabled++
		default:
			t.Errorf("unexpected result: %v", err)
		}
	}
	if bad != MaxFailures {
		t.Errorf("bad-password results = %d, want exactly %d before lockout", bad, MaxFailures)
	}
	if bad+disabled != attempts {
		t.Errorf("accounted %d attempts, want %d", bad+disabled, attempts)
	}
	if err := r.Authenticate("Schroeder", "multics75"); !errors.Is(err, ErrAccountDisabled) {
		t.Errorf("correct password after lockout = %v, want disabled", err)
	}
}

// A password change racing a storm of logins. The flipper counts flips
// started and finished under a mutex; a login that began after flip k
// finished and ended before flip k+1 started overlapped no flip, so it
// must see exactly the password flip k installed: that one succeeds and
// the other fails with ErrBadPassword. A login that overlapped a flip may
// go either way. After each flip the flipper waits for two more logins to
// end, so at least one login per flip is checked exactly. Once the flips
// stop, the old password must fail.
func TestChangePasswordRacingLogin(t *testing.T) {
	r := NewRegistry()
	passwords := [2]string{"old-password", "new-password"}
	if err := r.AddUser("Racer", "Proj", passwords[0], mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Subsystem, r, nil, metrics.New())
	const flips = 50
	var (
		mu                sync.Mutex
		cond              = sync.NewCond(&mu)
		started, finished int  // flips
		logins, checked   int  // logins ended, and those checked exactly
		stop, done        bool // the login storm is asked to stop, has stopped
		failure           error
	)
	go func() {
		defer func() {
			mu.Lock()
			done = true
			cond.Broadcast()
			mu.Unlock()
		}()
		for i := 0; ; i++ {
			pw := passwords[i%2]
			mu.Lock()
			k, stopped := finished, stop
			mu.Unlock()
			if stopped {
				return
			}
			_, err := svc.Login("Racer", "Proj", pw, mls.NewLabel(mls.Unclassified))
			mu.Lock()
			logins++
			cond.Broadcast()
			exact := started == k // no flip began since flip k finished
			if exact {
				checked++
			}
			mu.Unlock()
			current := pw == passwords[k%2]
			if exact && ((current && err != nil) || (!current && !errors.Is(err, ErrBadPassword))) {
				failure = fmt.Errorf("login with %q after %d flips, overlapping none: %v", pw, k, err)
				return
			}
		}
	}()
	// Flip the password back and forth under the login storm. Each
	// ChangePassword authenticates with the current password, which also
	// zeroes the failure count the storm's stale logins build up.
	for i := 0; i < flips; i++ {
		mu.Lock()
		started++
		mu.Unlock()
		if err := r.ChangePassword("Racer", passwords[i%2], passwords[(i+1)%2]); err != nil {
			t.Fatalf("change %d: %v", i, err)
		}
		mu.Lock()
		finished++
		for want := logins + 2; logins < want && !done; {
			cond.Wait()
		}
		mu.Unlock()
	}
	mu.Lock()
	stop = true
	for !done {
		cond.Wait()
	}
	mu.Unlock()
	if failure != nil {
		t.Fatal(failure)
	}
	if checked < flips {
		t.Errorf("%d logins overlapped no flip, want at least one per flip (%d)", checked, flips)
	}
	// An even number of flips leaves the first password current.
	if err := r.Authenticate("Racer", passwords[0]); err != nil {
		t.Errorf("final password rejected: %v", err)
	}
	if err := r.Authenticate("Racer", passwords[1]); !errors.Is(err, ErrBadPassword) {
		t.Errorf("stale password = %v, want ErrBadPassword", err)
	}
}

// AddProject racing logins on the new project must never corrupt the
// registry; once AddProject returns, logins on that project succeed.
func TestAddProjectConcurrent(t *testing.T) {
	r := reg(t)
	svc := NewService(Privileged, r, nil, metrics.New())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, err := svc.Login("Schroeder", "NewProj", "multics75", mls.NewLabel(mls.Unclassified))
				if err != nil && !errors.Is(err, ErrWrongProject) {
					t.Errorf("login: %v", err)
				}
			}
		}()
	}
	if err := r.AddProject("Schroeder", "NewProj"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	sess, err := svc.Login("Schroeder", "NewProj", "multics75", mls.NewLabel(mls.Unclassified))
	if err != nil {
		t.Fatal(err)
	}
	want := acl.Principal{Person: "Schroeder", Project: "NewProj", Tag: "a"}
	if sess.Principal != want {
		t.Errorf("principal = %v, want %v", sess.Principal, want)
	}
}
