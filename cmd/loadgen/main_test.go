package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

// good returns a baseline options value that validate accepts; tests
// mutate one field at a time.
func good() options {
	return options{
		n: 100, steps: 24, burst: 0, users: 0,
		par: 1, stage: int(core.S6Restructured),
		metricsEvery: 10000,
		kernels:      1,
	}
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(newFlagSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := good()
	want.seed, want.faultSeed = 75, 1
	if o != want {
		t.Fatalf("defaults parsed as %+v, want %+v", o, want)
	}
}

func TestParseFlagsProfiles(t *testing.T) {
	o, err := parseFlags(newFlagSet(), []string{
		"-n", "8", "-seed", "3", "-cpuprofile", "cpu.out", "-memprofile", "mem.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.cpuProfile != "cpu.out" || o.memProfile != "mem.out" {
		t.Errorf("profile paths parsed as %q, %q", o.cpuProfile, o.memProfile)
	}
	if o.n != 8 || o.seed != 3 {
		t.Errorf("-n/-seed parsed as %d/%d", o.n, o.seed)
	}
	if err := validate(o); err != nil {
		t.Errorf("profiled run rejected: %v", err)
	}
	if _, err := parseFlags(newFlagSet(), []string{"-cpuprofile"}); err == nil {
		t.Error("-cpuprofile without a path accepted")
	}
}

func TestParseFlagsRecordsExplicitFlags(t *testing.T) {
	o, err := parseFlags(newFlagSet(), []string{"-fault-seed", "1", "-steps", "24"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.faultSeedSet || !o.shapeSet {
		t.Errorf("explicit flags at their default values not recorded: %+v", o)
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validate(good()); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	withFaults := good()
	withFaults.faultRate = 0.01
	withFaults.faultSeedSet = true
	if err := validate(withFaults); err != nil {
		t.Fatalf("fault-rate+fault-seed rejected: %v", err)
	}
	withFleet := good()
	withFleet.kernels = 4
	withFleet.migrateEvery = 2
	if err := validate(withFleet); err != nil {
		t.Fatalf("kernels+migrate-every rejected: %v", err)
	}
	withScenario := good()
	withScenario.scenario = "office"
	if err := validate(withScenario); err != nil {
		t.Fatalf("scenario with default mix rejected: %v", err)
	}
	withScenario.mix = "editor=3,tenants=1"
	withScenario.arrival = "open:3"
	if err := validate(withScenario); err != nil {
		t.Fatalf("scenario+mix+arrival rejected: %v", err)
	}
	closedNoScenario := good()
	closedNoScenario.arrival = "closed"
	if err := validate(closedNoScenario); err != nil {
		t.Fatalf("explicit -arrival closed without -scenario rejected: %v", err)
	}
}

func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"par zero", func(o *options) { o.par = 0 }, "-par 0"},
		{"par negative", func(o *options) { o.par = -1 }, "-par -1"},
		{"n zero", func(o *options) { o.n = 0 }, "-n 0"},
		{"steps zero", func(o *options) { o.steps = 0 }, "-steps 0"},
		{"burst negative", func(o *options) { o.burst = -1 }, "-burst -1"},
		{"users negative", func(o *options) { o.users = -2 }, "-users -2"},
		{"rate above one", func(o *options) { o.faultRate = 1.5 }, "-fault-rate"},
		{"rate negative", func(o *options) { o.faultRate = -0.1 }, "-fault-rate"},
		{"seed without rate", func(o *options) { o.faultSeedSet = true }, "-fault-seed without -fault-rate"},
		{"stage out of range", func(o *options) { o.stage = 7 }, "-stage 7"},
		{"metrics period zero", func(o *options) { o.metricsEvery = 0 }, "-metrics-every 0"},
		{"kernels zero", func(o *options) { o.kernels = 0 }, "-kernels 0"},
		{"kernels negative", func(o *options) { o.kernels = -4 }, "-kernels -4"},
		{"migrate-every negative", func(o *options) { o.kernels = 4; o.migrateEvery = -1 }, "-migrate-every -1"},
		{"migrate without fleet", func(o *options) { o.migrateEvery = 2 }, "-migrate-every without -kernels"},
		{"compare with fleet", func(o *options) { o.kernels = 4; o.compare = true }, "-compare with -kernels"},
		{"metrics with fleet", func(o *options) { o.kernels = 4; o.metrics = true }, "-metrics with -kernels"},
		{"mix without scenario", func(o *options) { o.mix = "editor=3" }, "-mix without -scenario"},
		{"arrival without scenario", func(o *options) { o.arrival = "open:2" }, "-arrival open:2 without -scenario"},
		{"shape with scenario", func(o *options) { o.scenario = "office"; o.shapeSet = true }, "-steps/-burst/-users with -scenario"},
		{"compare with scenario", func(o *options) { o.scenario = "office"; o.compare = true }, "-compare with -scenario"},
		{"unknown persona", func(o *options) { o.scenario = "office"; o.mix = "wizard=2" }, "unknown persona"},
		{"zero mix weight", func(o *options) { o.scenario = "office"; o.mix = "editor=0" }, "positive integer"},
		{"malformed mix entry", func(o *options) { o.scenario = "office"; o.mix = "editor" }, "name=weight"},
		{"bad arrival", func(o *options) { o.scenario = "office"; o.arrival = "poisson" }, "want closed, open, or open:GAP"},
		{"negative arrival gap", func(o *options) { o.scenario = "office"; o.arrival = "open:-2" }, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := good()
			tc.mut(&o)
			err := validate(o)
			if err == nil {
				t.Fatalf("options %+v accepted, want error containing %q", o, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateNaNFaultRate(t *testing.T) {
	o := good()
	o.faultRate = nan()
	if err := validate(o); err == nil {
		t.Fatal("NaN fault rate accepted")
	}
}

// nan builds a NaN without importing math.
func nan() float64 {
	zero := 0.0
	return zero / zero
}
