package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/multics"
)

// runner is one set-up workload instance.
type runner interface {
	// step runs the next unit of deterministic work (a service round, a
	// touch round, a facade call), recording ops, samples and check
	// failures into m.
	step(m *meter) error
	// mayStop reports whether the deterministic prefix the digest and
	// the latency metrics cover has completed and the runner stands
	// where a measured phase may end: persona_mix ends only between
	// epochs, so a phase always holds whole epochs.
	mayStop() bool
	// finish runs the measured phase's closing work, inside the timed
	// interval: page_thrash syncs the backing store.
	finish(m *meter) error
	// system is the booted system under test.
	system() *multics.System
	// setTracer routes spans to t (nil: untraced).
	setTracer(t *tracer)
	// digest folds the outputs of the deterministic prefix.
	digest() string
	// counts reports the workload's own tallies (e.g. re-issued touches).
	counts() map[string]int64
	close()
}

// meter collects one measured phase.
type meter struct {
	clock *machine.Clock

	// Latency samples of the deterministic prefix, in op order: the
	// prefix is the same ops in every instance, so sample k of one
	// instance and sample k of another time the same op.
	wall []int64 // host ns
	sim  []int64 // vcycles

	ops, failed int64
	failures    []string

	inPrefix         bool
	simOps           int64
	simStart, simEnd int64
	nextOp           int64
}

func newMeter(clock *machine.Clock) *meter {
	return &meter{clock: clock, inPrefix: true, simStart: clock.Now()}
}

// opID numbers ops for span attribution.
func (m *meter) opID() int64 { m.nextOp++; return m.nextOp }

// sample records one latency sample on both clocks, if it lies in the
// prefix.
func (m *meter) sample(wallNs, simCycles int64) {
	if m.inPrefix {
		m.wall = append(m.wall, wallNs)
		m.sim = append(m.sim, simCycles)
	}
}

// done counts n completed ops.
func (m *meter) done(n int64) {
	m.ops += n
	if m.inPrefix {
		m.simOps += n
	}
}

// fail counts one failed op (wrong reply, stale read, wrong ACL decision,
// shed or throttled request, unexpected error).
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// closePrefix ends the sim window once the runner's prefix is complete.
func (m *meter) closePrefix(r runner) {
	if m.inPrefix && r.mayStop() {
		m.inPrefix = false
		m.simEnd = m.clock.Now()
	}
}

// drive runs steps until the phase may end after dur.
func drive(r runner, m *meter, dur time.Duration, start time.Time) error {
	for {
		if err := r.step(m); err != nil {
			return err
		}
		m.closePrefix(r)
		if r.mayStop() && time.Since(start) >= dur {
			return nil
		}
	}
}

// measurePlain is the untraced run: every end-to-end metric.
func measurePlain(r runner, o options) (result, error) {
	m := newMeter(r.system().Kernel.Services().Clock)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if err := drive(r, m, seconds(o.seconds), start); err != nil {
		return result{}, err
	}
	if err := r.finish(m); err != nil {
		return result{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	res := newResult(m, r)
	simCycles := m.simEnd - m.simStart
	res.metrics["ops_per_s"] = metric{Value: float64(m.ops) / elapsed.Seconds(), Unit: "op/s",
		note: fmt.Sprintf("%d ops in %.3f s", m.ops, elapsed.Seconds())}
	latency(res.metrics, append([]int64(nil), m.wall...), "prefix ops")
	res.metrics["sim_ops_per_kvcycle"] = metric{Value: ratio(float64(m.simOps)*1000, float64(simCycles)),
		Unit: "op/kvcycle", note: fmt.Sprintf("%d ops over %d vcycles", m.simOps, simCycles)}
	simLatency(res.metrics, m)
	res.samples = m.wall
	res.metrics["alloc_bytes_per_op"] = metric{Value: ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(m.ops)),
		Unit: "B/op", note: fmt.Sprintf("%d B", ms1.TotalAlloc-ms0.TotalAlloc)}
	res.metrics["peak_rss_mb"] = metric{Value: peakRSSMiB(), Unit: "MiB"}
	res.counts = r.counts()
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// latency adds op_p50_us and op_p99_us from host-ns samples (sorted in
// place), each with its sample count and the count beyond it.
func latency(out map[string]metric, v []int64, what string) {
	n := len(v)
	out["op_p50_us"] = metric{Value: quantile(v, 0.50) / 1e3, Unit: "us", note: fmt.Sprintf("n=%d %s", n, what)}
	out["op_p99_us"] = metric{Value: quantile(v, 0.99) / 1e3, Unit: "us",
		note: fmt.Sprintf("n=%d %s, %d beyond", n, what, n-1-rank(n, 0.99))}
}

// simLatency adds the virtual-cycle latency percentiles of the
// deterministic prefix. Being deterministic, they read the same in a
// traced and an untraced run.
func simLatency(out map[string]metric, m *meter) {
	ns := len(m.sim)
	out["sim_op_p50_vcycles"] = metric{Value: quantile(m.sim, 0.50), Unit: "vcycles",
		note: fmt.Sprintf("n=%d", ns)}
	out["sim_op_p99_vcycles"] = metric{Value: quantile(m.sim, 0.99), Unit: "vcycles",
		note: fmt.Sprintf("n=%d, %d beyond", ns, ns-1-rank(ns, 0.99))}
}

// combine folds the measured phases of several independently set-up
// instances into one result. Host-time figures are medians across
// instances, which damps the per-instance variation a fresh heap and
// fresh hash seeds bring; the deterministic figures (digest and sim_*)
// must agree exactly across instances, and a disagreement is a failure.
func combine(parts []result) result {
	if len(parts) == 1 {
		return parts[0]
	}
	res := result{metrics: map[string]metric{}, correct: true, digest: parts[0].digest}
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.correct = res.correct && p.correct
		res.failures = append(res.failures, p.failures...)
		res.notes = append(res.notes, p.notes...)
		for k, v := range p.counts {
			if res.counts == nil {
				res.counts = map[string]int64{}
			}
			res.counts[k] += v
		}
		if p.digest != res.digest {
			res.failed++
			res.correct = false
			res.failures = append(res.failures, fmt.Sprintf("digest %s differs from the first instance's %s",
				p.digest, res.digest))
		}
	}
	for name, first := range parts[0].metrics {
		vals := make([]float64, len(parts))
		for i, p := range parts {
			vals[i] = p.metrics[name].Value
		}
		if strings.HasPrefix(name, "sim_") {
			for _, v := range vals[1:] {
				if v != first.Value {
					res.failed++
					res.correct = false
					res.failures = append(res.failures, fmt.Sprintf("%s reads %v and %v for one seed", name, first.Value, v))
					break
				}
			}
			res.metrics[name] = first
			continue
		}
		agg, how := median(vals), "median"
		if name == "peak_rss_mb" {
			agg, how = vals[len(vals)-1], "high-water" // the process-wide mark only rises
		}
		res.metrics[name] = metric{Value: agg, Unit: first.Unit,
			note: fmt.Sprintf("%s of %.4g; first %s", how, vals, first.note)}
	}
	// Every instance replays the same prefix ops, so each op's host time
	// is taken as its median over the replays, and the percentiles run
	// over those medians. A preemption or GC pause that lands on an op in
	// a minority of the replays does not move it; a change that makes the
	// op slower in every replay does.
	n := len(parts[0].samples)
	for _, p := range parts[1:] {
		if len(p.samples) != n {
			res.failed++
			res.correct = false
			res.failures = append(res.failures, fmt.Sprintf("prefix has %d latency samples and %d for one seed",
				n, len(p.samples)))
			n = min(n, len(p.samples))
		}
	}
	per := make([]int64, n)
	replay := make([]float64, len(parts))
	for k := range per {
		for i, p := range parts {
			replay[i] = float64(p.samples[k])
		}
		per[k] = int64(median(replay))
	}
	latency(res.metrics, per, fmt.Sprintf("prefix ops, each the median of %d replays", len(parts)))
	res.failedFrac = ratio(float64(res.failed), float64(res.attempted))
	return res
}

// newResult starts a result from the phase's check tallies. A phase that
// attempted nothing counts as one failure: no result without work.
func newResult(m *meter, r runner) result {
	res := result{metrics: map[string]metric{}, digest: r.digest(), failures: m.failures}
	res.attempted, res.failed = m.ops+m.failed, m.failed
	if res.attempted == 0 {
		res.attempted, res.failed = 1, 1
	}
	res.correct = res.failed == 0
	res.failedFrac = ratio(float64(res.failed), float64(res.attempted))
	return res
}

// slicesPerRun is how many alternating untraced/traced slices a traced run
// splits its time into; interleaving keeps state drift out of the overhead
// comparison.
const slicesPerRun = 20

// closureTolerance is how far the traced partition (span self times,
// kernel-process times and driver time) may stray from the independently
// measured traced wall time.
const closureTolerance = 0.02

// measureTraced is the traced run: every per-layer metric. The phase
// alternates untraced and traced slices; registry deltas, GC figures and
// spans cover the traced slices only, and the untraced slices give the
// ops_per_s the trace overhead is measured against.
func measureTraced(r runner, o options) (result, error) {
	svc := r.system().Kernel.Services()
	tr := newTracer()
	r.setTracer(tr)
	defer r.setTracer(nil)
	m := newMeter(svc.Clock)

	counters := map[string]int64{}
	var gcCycles uint32
	var gcPause uint64
	var wallPlain, wallTraced time.Duration
	var opsPlain, opsTraced int64

	slice := seconds(o.seconds) / slicesPerRun
	start := time.Now()
	for i := 0; ; i++ {
		traced := i%2 == 1
		var ms0, ms1 runtime.MemStats
		var snap0 metrics.Snapshot
		if traced {
			runtime.ReadMemStats(&ms0)
			snap0 = svc.Metrics.Snapshot()
		}
		ops0 := m.ops
		s0 := time.Now()
		if traced {
			tr.startSlice()
		}
		if err := drive(r, m, slice, s0); err != nil {
			return result{}, err
		}
		if traced {
			tr.endSlice()
		}
		d := time.Since(s0)
		if traced {
			tr.fold()
			for _, c := range metrics.Delta(snap0, svc.Metrics.Snapshot()).Counters {
				counters[c.Name] += c.Value
			}
			runtime.ReadMemStats(&ms1)
			gcCycles += ms1.NumGC - ms0.NumGC
			gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
			wallTraced += d
			opsTraced += m.ops - ops0
		} else {
			wallPlain += d
			opsPlain += m.ops - ops0
		}
		if traced && time.Since(start) >= seconds(o.seconds) {
			break
		}
	}
	if err := r.finish(m); err != nil {
		return result{}, err
	}

	res := newResult(m, r)
	simLatency(res.metrics, m)
	a := tr.total
	lm := layerMetrics(tr, counters, opsTraced)
	for k, v := range lm {
		res.metrics[k] = v
	}
	for k, v := range r.counts() {
		res.metrics[k] = metric{Value: float64(v), Unit: "count", note: "whole run"}
	}
	res.metrics["runtime.gc_cycles_per_kop"] = metric{Value: ratio(float64(gcCycles)*1000, float64(opsTraced)),
		Unit: "1/kop", note: fmt.Sprintf("%d cycles / %d ops", gcCycles, opsTraced)}
	res.metrics["runtime.gc_pause_ms"] = metric{Value: float64(gcPause) / 1e6, Unit: "ms"}
	plainRate := ratio(float64(opsPlain), wallPlain.Seconds())
	tracedRate := ratio(float64(opsTraced), wallTraced.Seconds())
	res.metrics["bench.trace_overhead_frac"] = metric{Value: 1 - ratio(tracedRate, plainRate), Unit: "ratio",
		note: fmt.Sprintf("untraced %.0f op/s, traced %.0f op/s", plainRate, tracedRate)}
	res.metrics["bench.driver_s"] = metric{Value: float64(a.driver) / 1e9, Unit: "s"}
	res.notes = append(res.notes, tr.table()...)

	// Closure: the partition must add up to the traced wall time.
	gap := ratio(float64(a.wall-wallTraced.Nanoseconds()), float64(wallTraced.Nanoseconds()))
	if gap < 0 {
		gap = -gap
	}
	res.metrics["bench.trace_closure_frac"] = metric{Value: gap, Unit: "ratio",
		note: fmt.Sprintf("partition %.4f s vs measured %.4f s, tolerance %.2f", float64(a.wall)/1e9,
			wallTraced.Seconds(), closureTolerance)}
	if gap > closureTolerance || a.unclose > 0 {
		res.failures = append(res.failures,
			fmt.Sprintf("trace closure: gap %.4f, %d spans left open", gap, a.unclose))
		res.failed++
		res.correct = false
	}
	return res, nil
}

// counterSum adds every counter whose name has the prefix and suffix.
func counterSum(c map[string]int64, prefix, suffix string) int64 {
	var n int64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}
