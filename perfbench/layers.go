package main

import (
	"fmt"
	"strings"
)

// Span names. A span is named after the public function it wraps.
const (
	spanDial     = "netattach.DialAsync"
	spanLogin    = "netattach.Flush.login"
	spanFlush    = "netattach.Flush"
	spanSend     = "netattach.Send"
	spanRecv     = "netattach.TryRecv"
	spanClose    = "netattach.Close"
	spanRead     = "multics.Segment.ReadWord"
	spanWrite    = "multics.Segment.WriteWord"
	spanOpen     = "multics.Open"
	spanSegClose = "multics.Segment.Close"
	spanList     = "multics.List"
	spanSetACL   = "multics.SetACL"
	spanCreate   = "multics.CreateSegment"
	spanMakeDir  = "multics.MakeDir"
	spanPump     = "sched.Run"
	blockPrefix  = "blockstore."
)

// layerMetrics derives the per-layer metrics: times from the span sweep,
// counts from registry deltas over the traced slices. Every ratio carries
// its base in the printed note.
func layerMetrics(tr *tracer, c map[string]int64, ops int64) map[string]metric {
	a := tr.total
	out := map[string]metric{}
	fops := float64(ops)
	named := func(names ...string) spanStats {
		return tr.byName(func(name string, _ bool) bool {
			for _, n := range names {
				if name == n {
					return true
				}
			}
			return false
		})
	}
	secs := func(s spanStats) float64 { return float64(s.self) / 1e9 }
	perOp := func(name string, n int64, unit string) {
		out[name] = metric{Value: ratio(float64(n), fops), Unit: unit, note: fmt.Sprintf("%d / %d ops", n, ops)}
	}
	frac := func(name string, num, den int64) {
		out[name] = metric{Value: ratio(float64(num), float64(den)), Unit: "ratio",
			note: fmt.Sprintf("%d / %d", num, den)}
	}

	// netattach: the front-end calls the driver makes.
	login := named(spanDial, spanLogin)
	flush := named(spanFlush)
	closes := named(spanClose)
	send, recv := named(spanSend), named(spanRecv)
	out["netattach.flush_s"] = metric{Value: secs(flush), Unit: "s", note: fmt.Sprintf("%d flushes", flush.n)}
	out["netattach.login_s"] = metric{Value: secs(login), Unit: "s", note: fmt.Sprintf("%d calls", login.n)}
	out["netattach.close_s"] = metric{Value: secs(closes), Unit: "s", note: fmt.Sprintf("%d closes", closes.n)}
	out["netattach.send_ns"] = metric{Value: send.mean(), Unit: "ns", note: fmt.Sprintf("n=%d", send.n)}
	out["netattach.recv_ns"] = metric{Value: recv.mean(), Unit: "ns", note: fmt.Sprintf("n=%d", recv.n)}
	out["netattach.shed"] = metric{Value: float64(c["net.reply_drops"] + c["net.throttled"] + c["net.input_lost"]),
		Unit: "count"}

	// sched: dispatch counts, and the driver's pumps.
	perOp("sched.dispatches_per_op", c["sched.dispatches"], "count/op")
	perOp("sched.dispatch_vcycles_per_op", c["sched.dispatch_cycles"], "vcycles/op")
	pump := named(spanPump)
	out["sched.pump_s"] = metric{Value: secs(pump), Unit: "s", note: fmt.Sprintf("%d pumps", pump.n)}

	// gate: every per-gate counter (names carry $) folds into one sum.
	perOp("gate.calls_per_op", counterSum(c, "gate.", ".calls"), "count/op")

	// machine: the associative memory, and touches that did not fault.
	hits, misses := c["machine.assoc_hits"], c["machine.assoc_misses"]
	frac("machine.assoc_hit_ratio", hits, hits+misses)
	perOp("machine.assoc_invalidations_per_op", c["machine.assoc_invalidations"], "count/op")
	touch := func(fault bool) spanStats {
		return tr.byName(func(name string, f bool) bool {
			return (name == spanRead || name == spanWrite) && f == fault
		})
	}
	hit, faulted := touch(false), touch(true)
	out["machine.touch_reissues"] = metric{Value: 0, Unit: "count"}
	out["machine.hit_touch_ns"] = metric{Value: hit.mean(), Unit: "ns", note: fmt.Sprintf("n=%d", hit.n)}

	// pagectl: faulting touches' self time, waits, and the freeing
	// processes' own running time.
	faults := c["pagectl.faults"]
	frac("pagectl.fault_ratio", faults, hit.n+faulted.n)
	out["pagectl.fault_touch_us"] = metric{Value: faulted.mean() / 1e3, Unit: "us",
		note: fmt.Sprintf("n=%d", faulted.n)}
	out["pagectl.touch_wait_s"] = metric{Value: float64(hit.wait+faulted.wait) / 1e9, Unit: "s"}
	out["pagectl.wait_vcycles_per_fault"] = metric{Value: ratio(float64(c["pagectl.wait_cycles"]), float64(faults)),
		Unit: "vcycles", note: fmt.Sprintf("%d / %d faults", c["pagectl.wait_cycles"], faults)}
	var freeing int64
	for name, d := range a.kernel {
		if strings.Contains(name, "freeing") {
			freeing += d
		}
	}
	out["pagectl.freeing_s"] = metric{Value: float64(freeing) / 1e9, Unit: "s"}

	// mem: transfers per fault and free-list steals.
	for _, t := range []string{"core_to_bulk", "bulk_to_disk", "bulk_to_core", "disk_to_core"} {
		out["mem."+t+"_per_fault"] = metric{Value: ratio(float64(c["mem."+t]), float64(faults)), Unit: "count/fault",
			note: fmt.Sprintf("%d / %d faults", c["mem."+t], faults)}
	}
	out["mem.steals"] = metric{Value: float64(c["mem.frame_steals"] + c["mem.block_steals"]), Unit: "count"}

	// blockstore: timed by the BackingStore wrapper.
	store := tr.byName(func(name string, _ bool) bool { return strings.HasPrefix(name, blockPrefix) })
	writes := named(blockPrefix+"WriteBlock", blockPrefix+"WriteBlocks")
	reads := named(blockPrefix+"ReadBlock", blockPrefix+"ReadBlocks")
	out["blockstore.calls"] = metric{Value: float64(store.n), Unit: "count"}
	out["blockstore.busy_s"] = metric{Value: secs(store), Unit: "s"}
	out["blockstore.write_ns"] = metric{Value: writes.mean(), Unit: "ns", note: fmt.Sprintf("n=%d", writes.n)}
	out["blockstore.read_ns"] = metric{Value: reads.mean(), Unit: "ns", note: fmt.Sprintf("n=%d", reads.n)}
	pw := c["blockstore.writes"]
	out["blockstore.bytes_per_page_out"] = metric{Value: ratio(float64(c["blockstore.bytes_appended"]), float64(pw)),
		Unit: "B/page", note: fmt.Sprintf("%d B / %d pages", c["blockstore.bytes_appended"], pw)}
	frac("blockstore.dedup_ratio", c["blockstore.dedup_hits"], pw)

	// fs: the resolution caches.
	frac("fs.path_cache_hit_ratio", c["fs.path_cache.hits"], c["fs.path_cache.hits"]+c["fs.path_cache.misses"])
	frac("fs.acl_cache_hit_ratio", c["fs.acl_cache.hits"], c["fs.acl_cache.hits"]+c["fs.acl_cache.misses"])
	perOp("fs.invalidations_per_op", c["fs.path_cache.invalidations"]+c["fs.acl_cache.invalidations"], "count/op")
	perOp("fs.resolves_per_op", c["fs.resolves"], "count/op")

	// multics: per facade call type, mean and p99 self time.
	for _, k := range []struct{ metric, span string }{
		{"open", spanOpen}, {"list", spanList}, {"set_acl", spanSetACL}, {"create", spanCreate},
	} {
		s := named(k.span)
		out["multics."+k.metric+"_ns"] = metric{Value: s.mean(), Unit: "ns", note: fmt.Sprintf("n=%d", s.n)}
		out["multics."+k.metric+"_p99_ns"] = metric{Value: s.p99(), Unit: "ns", note: fmt.Sprintf("n=%d", s.n)}
	}
	return out
}
