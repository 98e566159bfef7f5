// Command perfbench is the repository's end-to-end benchmark. It boots an
// S6 (restructured) kernel inside this one process and drives one of three
// closed-loop workloads through public surfaces only — workload.Scenario and
// Plan, netattach.Frontend and Conn, the multics facade, mem.Config.Backing
// over a blockstore.Store, and the kernel's metrics registry — so a change
// to any layer underneath is measured without the benchmark moving.
//
//	perfbench --workload persona_mix --seed 1 --seconds 10 --trace 0
//
// Every output is checked against an independent model; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// With --trace 0 the metrics are the end-to-end set on both clocks (host
// wall time and the simulation's virtual cycles); with --trace 1 the run
// records spans around every call into a public layer and reports the
// per-layer set. The process exits 1 if any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef names a workload, says why it was chosen, and builds it.
type workloadDef struct {
	name string
	why  string
	make func(seed int64, short bool) (runner, error)
}

// workloads is the benchmark's registry. The why text is the reason each
// workload exists: which layers it loads and which it leaves idle.
var workloads = []workloadDef{
	{
		name: "persona_mix",
		why: "netattach, sched dispatch, the light gate spine (net_$read, hcs_$get_authorization), " +
			"iosys reply buffers and login do the work; fs, pagectl and blockstore stay idle",
		make: newPersonaMix,
	},
	{
		name: "page_thrash",
		why: "machine hit path, the parallel pager and its freeing processes, mem transfers and " +
			"blockstore do the work; netattach and gate stay idle",
		make: newPageThrash,
	},
	{
		name: "fs_churn",
		why: "fs path and ACL caches, acl/mls decisions and assoc-memory invalidation do the work " +
			"under heavy hierarchy gates, with revocations beside the reads",
		make: newFSChurn,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRepeats is how many independent instances a run sets up; setup_s
// is the median of their set-up times.
const setupRepeats = 16

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every workload input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured-phase length in host seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "small shapes (for tests and smoke runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 0 and --trace 0|1\n",
			strings.Join(names, ", "))
		return 2
	}
	o.trace = traceFlag == 1

	res, err := execute(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res.wire(o.trace))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note carries the sample count or ratio base printed beside it.
	note string
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	// Printed beside the metrics, not part of the JSON line.
	digest     string
	failures   []string
	notes      []string
	samples    []int64          // host ns per prefix op, in op order, untraced runs
	counts     map[string]int64 // the workload's own tallies, untraced runs
	failedFrac float64
}

type wireResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics an untraced run puts on its result line; the
// others it prints are side figures. A traced run puts every metric it
// computes there.
var endToEnd = []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us",
	"sim_ops_per_kvcycle", "alloc_bytes_per_op", "peak_rss_mb"}

func (r result) wire(traced bool) wireResult {
	ms := r.metrics
	if !traced {
		ms = map[string]metric{}
		for _, n := range endToEnd {
			ms[n] = r.metrics[n]
		}
	}
	return wireResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
}

// execute prints the run's provenance, sets up and measures the
// workload's instances, prints every metric with its unit and sample
// count, and returns the combined result.
func execute(w workloadDef, o options, out io.Writer) (result, error) {
	host := fingerprint()
	prov := map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "short": o.short, "stage": "S6",
	}
	for k, v := range host {
		prov[k] = v
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)

	// The untraced run sets up setupRepeats independent instances, timing
	// each set-up, and measures each for an equal share of the time; the
	// traced run measures one instance for all of it.
	instances := setupRepeats
	if o.trace {
		instances = 1
	}
	setups := make([]float64, 0, instances)
	var parts []result
	for i := 0; i < instances; i++ {
		runtime.GC() // the previous instance's garbage is not this set-up's cost
		start := time.Now()
		r, err := w.make(o.seed, o.short)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		var part result
		if o.trace {
			part, err = measureTraced(r, o)
		} else {
			share := o
			share.seconds = o.seconds / setupRepeats
			part, err = measurePlain(r, share)
		}
		r.close()
		if err != nil {
			return result{}, err
		}
		parts = append(parts, part)
	}
	res := combine(parts)
	if !o.trace {
		res.metrics["setup_s"] = metric{Value: median(setups), Unit: "s",
			note: fmt.Sprintf("median of %d setups", len(setups))}
	}
	printMetrics(out, res)
	return res, nil
}

func printMetrics(out io.Writer, res result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		if m.note != "" {
			fmt.Fprintf(out, "metric %-34s %14.6g %-10s (%s)\n", n, m.Value, m.Unit, m.note)
		} else {
			fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(out, "digest %s\n", res.digest)
	for _, n := range res.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	for k, v := range res.counts {
		fmt.Fprintf(out, "count %s %d\n", k, v)
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "failure %s\n", f)
	}
	fmt.Fprintf(out, "check attempted %d failed %d failed_frac %g correct %v\n",
		res.attempted, res.failed, res.failedFrac, res.correct)
}
