package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the benchmark's span recorder. Spans are taken around calls
// into public layer functions (a multics call, a Segment touch, a netattach
// call, a BackingStore method, a Scheduler.Run pump) and kept in memory
// until the traced slice ends; the sweep then partitions the slice's wall
// time among them and folds the result into per-name aggregates.
//
// Attribution rule. The simulation is single-threaded in effect: simulated
// processes are goroutines that run one at a time under the scheduler's
// baton. In a traced page_thrash run the scheduler's trace sink is teed so
// every dispatch end is a timestamped event naming the process that ran;
// the interval since the previous dispatch end (or since the pump began)
// belongs to that process. Each elementary interval between two events is
// charged to the innermost open span issued by the running process — its
// self time. A touch that is open while another process runs is charged
// that interval as wait, not self time. Running time of a process with no
// open span (the page-freeing kernel processes) is charged to that process
// by name. Time inside a traced slice covered by no span, or spent by a
// session process in the benchmark's own loop between its touches, is the
// driver's own time (bench.driver_s). The partition is exact, so span self times,
// kernel-process times and driver time sum to the traced wall time; the
// closure check verifies that no span leaked outside its slice.

// procDriver marks spans issued by the driver goroutine itself;
// procRunning marks spans whose issuer is whichever simulated process is
// running when they begin (BackingStore calls).
const (
	procDriver  = -1
	procRunning = -2
)

type evKind uint8

const (
	evBegin evKind = iota
	evEnd
	evDispatch
	evSliceStart
	evSliceEnd
)

type tevent struct {
	t    int64
	kind evKind
	id   int32 // span index, or interned process name for evDispatch
}

// span is one recorded call.
type span struct {
	name       string
	op         int64
	proc       int32 // session index, procDriver, procRunning, or interned name
	start, end int64
	fault      bool // a touch that took a page fault
	// Filled by sweep.
	self, wait int64
}

// tracer records spans; a nil *tracer records nothing, so untraced runs pay
// one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	events []tevent
	names  map[string]int32
	byID   []string
	open   bool // inside a traced slice

	// Folded results of the slices swept so far: per-span-name
	// aggregates and the running partition.
	agg   map[aggKey]*spanStats
	total attribution
}

// aggKey groups spans by name, touches further split by whether they
// faulted.
type aggKey struct {
	name  string
	fault bool
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), names: map[string]int32{}, agg: map[aggKey]*spanStats{},
		total: attribution{kernel: map[string]int64{}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its handle (or -1 when not tracing).
func (t *tracer) begin(name string, op int64, proc int32) int32 {
	if t == nil || !t.open {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	now := t.now()
	t.spans = append(t.spans, span{name: name, op: op, proc: proc, start: now, end: -1})
	t.events = append(t.events, tevent{t: now, kind: evBegin, id: id})
	t.mu.Unlock()
	return id
}

// end closes span id, marking whether it faulted.
func (t *tracer) end(id int32, fault bool) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	t.mu.Lock()
	now := t.now()
	t.spans[id].end = now
	t.spans[id].fault = fault
	t.events = append(t.events, tevent{t: now, kind: evEnd, id: id})
	t.mu.Unlock()
}

// intern maps a simulated process name to a small id below the session
// range (ids are negative and start at -3).
func (t *tracer) intern(name string) int32 {
	if id, ok := t.names[name]; ok {
		return id
	}
	id := int32(-3 - len(t.byID))
	t.names[name] = id
	t.byID = append(t.byID, name)
	return id
}

func (t *tracer) procName(id int32) string {
	if id <= -3 && int(-3-id) < len(t.byID) {
		return t.byID[-3-id]
	}
	return ""
}

// teeScheduler makes every scheduler dispatch an event, forwarding the
// original trace stream to next (the kernel's trace ring).
func (t *tracer) teeScheduler(s *sched.Scheduler, next trace.Sink, procOf func(name string) int32) {
	s.SetSink(trace.SinkFunc(func(ev trace.Event) {
		if t.open {
			t.mu.Lock()
			id := procOf(ev.Name)
			if id == procDriver {
				id = t.intern(ev.Name)
			}
			t.events = append(t.events, tevent{t: t.now(), kind: evDispatch, id: id})
			t.mu.Unlock()
		}
		if next != nil {
			next.Record(ev)
		}
	}))
}

func (t *tracer) startSlice() {
	t.mu.Lock()
	t.open = true
	t.events = append(t.events, tevent{t: t.now(), kind: evSliceStart})
	t.mu.Unlock()
}

func (t *tracer) endSlice() {
	t.mu.Lock()
	t.events = append(t.events, tevent{t: t.now(), kind: evSliceEnd})
	t.open = false
	t.mu.Unlock()
}

// fold sweeps the slice just ended, aggregates its spans by name and drops
// the raw spans, so a traced run holds one slice of spans at a time.
func (t *tracer) fold() {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.sweep()
	t.total.wall += a.wall
	t.total.driver += a.driver
	t.total.unclose += a.unclose
	for k, v := range a.kernel {
		t.total.kernel[k] += v
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.end < 0 {
			continue
		}
		k := aggKey{sp.name, sp.fault}
		st := t.agg[k]
		if st == nil {
			st = &spanStats{}
			t.agg[k] = st
		}
		st.n++
		st.self += sp.self
		st.wait += sp.wait
		st.selfSamples = append(st.selfSamples, sp.self)
	}
	t.spans, t.events = t.spans[:0], t.events[:0]
}

// attribution is the sweep's output.
type attribution struct {
	wall    int64            // total traced-slice time
	driver  int64            // slice time covered by no span
	kernel  map[string]int64 // running time of processes with no open span
	unclose int              // spans still open at a slice end (closure failures)
}

// sweep partitions traced time among spans (see the file comment).
func (t *tracer) sweep() attribution {
	a := attribution{kernel: map[string]int64{}}
	// running[i] is the process that runs between event i-1 and event i:
	// the process named by the next dispatch event, when one follows
	// before the next pump span ends.
	running := make([]int32, len(t.events))
	nextDispatch := int32(procDriver)
	for i := len(t.events) - 1; i >= 0; i-- {
		ev := t.events[i]
		switch {
		case ev.kind == evDispatch:
			nextDispatch = ev.id
		case ev.kind == evEnd && t.spans[ev.id].name == spanPump,
			ev.kind == evSliceEnd:
			// Nothing dispatched after the last dispatch of a pump:
			// the tail belongs to the scheduler's own bookkeeping.
			nextDispatch = procDriver
		}
		running[i] = nextDispatch
	}
	var open []int32
	pumps := 0
	inSlice := false
	prev := int64(0)
	for i, ev := range t.events {
		dt := ev.t - prev
		prev = ev.t
		if inSlice && dt > 0 {
			a.wall += dt
			r := int32(procDriver)
			if pumps > 0 {
				r = running[i]
			}
			t.charge(&a, open, r, dt)
		}
		switch ev.kind {
		case evSliceStart:
			inSlice = true
		case evSliceEnd:
			inSlice = false
			a.unclose += len(open)
			open = open[:0]
		case evBegin:
			sp := &t.spans[ev.id]
			if sp.proc == procRunning {
				// Issued by the running process, on behalf of the op
				// of its innermost open span.
				sp.proc = procDriver
				if pumps > 0 {
					sp.proc = running[i+1]
				}
				for j := len(open) - 1; j >= 0; j-- {
					if o := &t.spans[open[j]]; o.proc == sp.proc {
						sp.op = o.op
						break
					}
				}
			}
			if sp.name == spanPump {
				pumps++
			}
			open = append(open, ev.id)
		case evEnd:
			if t.spans[ev.id].name == spanPump {
				pumps--
			}
			for j := len(open) - 1; j >= 0; j-- {
				if open[j] == ev.id {
					open = append(open[:j], open[j+1:]...)
					break
				}
			}
		}
	}
	return a
}

// charge attributes dt, during which process r ran, to the innermost open
// span r issued; other processes' open touches accrue it as wait.
func (t *tracer) charge(a *attribution, open []int32, r int32, dt int64) {
	owner := int32(-1)
	for j := len(open) - 1; j >= 0; j-- {
		if t.spans[open[j]].proc == r {
			owner = open[j]
			break
		}
	}
	for _, id := range open {
		if sp := &t.spans[id]; id != owner && sp.proc != r && sp.proc >= 0 {
			sp.wait += dt
		}
	}
	switch {
	case owner >= 0:
		t.spans[owner].self += dt
	case r >= 0:
		// A session process running the benchmark's own loop between
		// its touches.
		a.driver += dt
	case r != procDriver:
		a.kernel[t.procName(r)] += dt
	default:
		// A driver-issued span that is not innermost for a simulated
		// process still owns driver time (e.g. a pump's bookkeeping).
		for j := len(open) - 1; j >= 0; j-- {
			if t.spans[open[j]].proc == procDriver {
				t.spans[open[j]].self += dt
				return
			}
		}
		a.driver += dt
	}
}

// spanStats aggregates self times for one span name.
type spanStats struct {
	n           int64
	self, wait  int64
	selfSamples []int64
}

func (s spanStats) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.self) / float64(s.n)
}

func (s spanStats) p99() float64 {
	return quantile(append([]int64(nil), s.selfSamples...), 0.99)
}

// byName merges the aggregates of every span name keep accepts.
func (t *tracer) byName(keep func(name string, fault bool) bool) spanStats {
	var s spanStats
	for k, st := range t.agg {
		if !keep(k.name, k.fault) {
			continue
		}
		s.n += st.n
		s.self += st.self
		s.wait += st.wait
		s.selfSamples = append(s.selfSamples, st.selfSamples...)
	}
	return s
}

// table writes the folded spans out, one line per span name (touches
// split by fault), then the kernel processes' and the driver's time.
func (t *tracer) table() []string {
	keys := make([]aggKey, 0, len(t.agg))
	for k := range t.agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return !keys[i].fault && keys[j].fault
	})
	var out []string
	for _, k := range keys {
		st := t.agg[k]
		out = append(out, fmt.Sprintf("span %-28s fault=%-5v n=%-8d self_s=%.6f wait_s=%.6f mean_ns=%.0f p99_ns=%.0f",
			k.name, k.fault, st.n, float64(st.self)/1e9, float64(st.wait)/1e9, st.mean(), st.p99()))
	}
	procs := make([]string, 0, len(t.total.kernel))
	for name := range t.total.kernel {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	for _, name := range procs {
		out = append(out, fmt.Sprintf("kernel-process %-18s self_s=%.6f", name, float64(t.total.kernel[name])/1e9))
	}
	return append(out, fmt.Sprintf("driver self_s=%.6f of traced wall %.6f s",
		float64(t.total.driver)/1e9, float64(t.total.wall)/1e9))
}
