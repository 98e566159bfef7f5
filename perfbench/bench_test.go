package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/multics"
)

// heldOutSeed was not used while the workloads were sized; every check
// must pass on it too.
const heldOutSeed = 1975

// shortRun sets a workload up in short mode and runs its deterministic
// prefix (seconds 0), plain or traced.
func shortRun(t *testing.T, name string, seed int64, traced bool, prepare func(runner)) result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := w.make(seed, true)
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	defer r.close()
	if prepare != nil {
		prepare(r)
	}
	// Traced runs need slices long enough for the closure check to be
	// meaningful; plain runs measure just the deterministic prefix.
	o := options{workload: name, seed: seed, short: true}
	if traced {
		o.seconds = 0.2
	}
	var res result
	if traced {
		res, err = measureTraced(r, o)
	} else {
		res, err = measurePlain(r, o)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, heldOutSeed} {
			for _, traced := range []bool{false, true} {
				res := shortRun(t, w.name, seed, traced, nil)
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Errorf("%s seed %d traced %v: correct=%v attempted=%d failed=%d %v",
						w.name, seed, traced, res.correct, res.attempted, res.failed, res.failures)
				}
			}
		}
	}
}

// simNames are the metrics that must repeat exactly for a seed.
var simNames = []string{"sim_ops_per_kvcycle", "sim_op_p50_vcycles", "sim_op_p99_vcycles"}

func TestDigestAndSimMetricsRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a := shortRun(t, w.name, 7, false, nil)
		b := shortRun(t, w.name, 7, false, nil)
		c := shortRun(t, w.name, 8, false, nil)
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digest %q then %q for one seed", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.name)
		}
		for _, n := range simNames {
			if a.metrics[n] != b.metrics[n] {
				t.Errorf("%s: %s %v then %v for one seed", w.name, n, a.metrics[n], b.metrics[n])
			}
			if a.metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, n, a.metrics[n].Value)
			}
		}
	}
}

func TestPersonaDigestMatchesWorkloadRun(t *testing.T) {
	const seed = 11
	res := shortRun(t, "persona_mix", seed, false, nil)
	rep, err := workload.RunAt(multics.StageRestructured, personaScenario(seed, personaShapeFor(true)))
	if err != nil {
		t.Fatal(err)
	}
	if res.digest != rep.SessionDigest {
		t.Fatalf("benchmark transcript %s, workload.RunAt %s", res.digest, rep.SessionDigest)
	}
}

// TestChecksCatchPlantedFaults corrupts one observation per workload and
// requires the run to fail.
func TestChecksCatchPlantedFaults(t *testing.T) {
	cases := []struct {
		name, what string
		plant      func(runner)
	}{
		{"persona_mix", "wrong reply", func(r runner) { r.(*personaMix).plant = 5 }},
		{"page_thrash", "stale read", func(r runner) { r.(*pageThrash).plant = firstRead(r.(*pageThrash)) }},
		{"fs_churn", "wrong ACL decision", func(r runner) { r.(*fsChurn).plant = 3 }},
	}
	for _, c := range cases {
		res := shortRun(t, c.name, 1, false, c.plant)
		if res.correct || res.failed != 1 {
			t.Errorf("%s: planted %s not caught: correct=%v failed=%d", c.name, c.what, res.correct, res.failed)
		}
	}
}

// firstRead is the global index of the first read in round 0, so the
// planted corruption lands on a checked read rather than a write.
func firstRead(p *pageThrash) int64 {
	for k := 0; k < p.sh.touches; k++ {
		if x := mix(uint64(p.seed), 0x70, 0, 0, uint64(k)); (x>>4)%5 >= 2 {
			return int64(k)
		}
	}
	return 0
}

// TestLatencyIsTheMedianOfReplays checks that a slow replay of one op
// does not move the combined percentiles, a uniformly slower op does, and
// replays of unequal length fail the run.
func TestLatencyIsTheMedianOfReplays(t *testing.T) {
	part := func(samples ...int64) result {
		return result{correct: true, attempted: 1, metrics: map[string]metric{}, samples: samples}
	}
	quiet := []result{part(1000, 2000, 3000), part(1000, 2000, 3000), part(1000, 2000, 3000)}
	base := combine(quiet)
	hit := combine([]result{part(1000, 2000, 3000), part(1000, 2000, 90000), part(1000, 2000, 3000)})
	if hit.metrics["op_p99_us"] != base.metrics["op_p99_us"] || base.metrics["op_p99_us"].Value != 3 {
		t.Errorf("one slow replay moved p99: %v, quiet %v", hit.metrics["op_p99_us"], base.metrics["op_p99_us"])
	}
	slow := combine([]result{part(1000, 4000, 3000), part(1000, 4000, 3000), part(1000, 4000, 3000)})
	if v := slow.metrics["op_p50_us"].Value; v != 3 || !slow.correct {
		t.Errorf("op 1 slower in every replay: p50 %v, correct %v", v, slow.correct)
	}
	short := combine([]result{part(1000, 2000, 3000), part(1000, 2000)})
	if short.correct || short.failed != 1 {
		t.Errorf("replays of 3 and 2 ops: correct=%v failed=%d", short.correct, short.failed)
	}
}

// TestInstancesAgree runs every workload the way the command does, over
// several set-up instances measured past their prefix, and requires the
// instances to agree on the digest, the sim_* figures and the prefix
// latency samples.
func TestInstancesAgree(t *testing.T) {
	for _, w := range workloads {
		var out, errb bytes.Buffer
		if code := run([]string{"--workload", w.name, "--seconds", "0.3", "--short"}, &out, &errb); code != 0 {
			t.Errorf("%s: exit %d: %s%s", w.name, code, errb.String(), out.String())
		}
	}
}

func TestTracedRunReportsEveryLayerAndCloses(t *testing.T) {
	for _, w := range workloads {
		res := shortRun(t, w.name, 1, true, nil)
		gap := res.metrics["bench.trace_closure_frac"]
		if gap.Value > closureTolerance {
			t.Errorf("%s: trace closure gap %v", w.name, gap.Value)
		}
		for _, n := range []string{"netattach.flush_s", "blockstore.calls", "multics.open_ns",
			"pagectl.fault_ratio", "bench.driver_s", "gate.calls_per_op"} {
			if _, ok := res.metrics[n]; !ok {
				t.Errorf("%s: traced run lacks %s", w.name, n)
			}
		}
	}
	// A layer the workload leaves idle reads zero.
	idle := map[string][]string{
		"persona_mix": {"blockstore.calls", "pagectl.fault_ratio", "multics.open_ns"},
		"page_thrash": {"netattach.flush_s", "gate.calls_per_op", "multics.open_ns"},
		"fs_churn":    {"netattach.flush_s", "blockstore.calls", "pagectl.fault_ratio"},
	}
	for name, ms := range idle {
		res := shortRun(t, name, 1, true, nil)
		for _, m := range ms {
			if v := res.metrics[m].Value; v != 0 {
				t.Errorf("%s: idle layer metric %s = %v", name, m, v)
			}
		}
	}
}

func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fs_churn", "--trace", "2"},
		{"--workload", "fs_churn", "--seconds", "-1"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	out.Reset()
	code := run([]string{"--workload", "fs_churn", "--seed", "3", "--seconds", "0", "--short"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 || last.Metrics["setup_s"] == nil {
		t.Fatalf("result %+v", last)
	}
	if !strings.HasPrefix(lines[0], "provenance {") {
		t.Fatalf("first line %q is not the provenance record", lines[0])
	}
}
