#!/bin/sh
# Repository gate: vet everything, then run the full test suite under the
# race detector. CI and pre-commit both call this.
set -eu
cd "$(dirname "$0")/.."

echo "== gate-registration lint"
# Gate tables are declarative and live in internal/core only: no other
# package may register gates behind the spine's back. (internal/gate is
# the registry implementation itself and its tests.) Heuristic: a file
# that imports repro/internal/gate and calls .Register(/MustRegister( is
# registering gates; other Register methods (e.g. the interrupt
# controller's) don't trip it because those files don't import gate.
bad=""
for f in $(grep -rl 'MustRegister(\|\.Register(' --include='*.go' internal/ cmd/ multics/ 2>/dev/null |
	grep -v '^internal/core/' | grep -v '^internal/gate/' || true); do
	if grep -q '"repro/internal/gate"' "$f"; then
		bad="$bad
$(grep -n 'MustRegister(\|\.Register(' "$f" | sed "s|^|$f:|")"
	fi
done
if [ -n "$bad" ]; then
	echo "gate registration outside internal/core:$bad" >&2
	exit 1
fi

echo "== fault-event construction lint"
# Injected-fault trace events (trace.StageInject) are constructed in one
# place: the fault plane's injector. Any other package referring to
# StageInject is either forging injected events or depending on the
# plane's internals — both are wrong. The spine deliberately does not
# alias StageInject into internal/gate, so a mention outside the trace
# spine and internal/faults is always a violation.
bad=""
for f in $(grep -rl 'StageInject' --include='*.go' internal/ cmd/ multics/ examples/ ./*.go 2>/dev/null |
	grep -v '^internal/trace/' | grep -v '^internal/faults/' || true); do
	bad="$bad
$(grep -n 'StageInject' "$f" | sed "s|^|$f:|")"
done
if [ -n "$bad" ]; then
	echo "StageInject referenced outside internal/trace + internal/faults:$bad" >&2
	exit 1
fi

echo "== atomic-counter lint"
# Counters live in the unified metrics plane (internal/metrics): no other
# package may grow private sync/atomic counter fields — that is how the
# four ad-hoc stats surfaces accreted in the first place. Allowlisted
# survivors: the trace ring's cursor/enabled (internal/trace/trace.go is
# the leaf the metrics plane itself publishes through) and the fault
# injector's tallies (internal/faults/inject.go predates the plane and is
# scheduled to migrate). atomic.Pointer is not a counter and is exempt.
bad=""
for f in $(grep -rl 'atomic\.\(Int32\|Int64\|Uint32\|Uint64\|Bool\)' --include='*.go' internal/ cmd/ multics/ examples/ ./*.go 2>/dev/null |
	grep -v '^internal/metrics/' | grep -v '^internal/trace/trace\.go$' |
	grep -v '^internal/faults/inject\.go$' || true); do
	bad="$bad
$(grep -n 'atomic\.\(Int32\|Int64\|Uint32\|Uint64\|Bool\)' "$f" | sed "s|^|$f:|")"
done
if [ -n "$bad" ]; then
	echo "sync/atomic counters outside internal/metrics (use Services().Metrics):$bad" >&2
	exit 1
fi

echo "== fleet-isolation lint"
# The fleet composes member kernels only through their public surfaces:
# the multics facade, the netattach front-end, and Kernel.Services().
# Importing deeper kernel packages (machine, mem, fs, sched, gate
# internals...) from internal/fleet would couple the fleet to kernel
# internals and bypass the facade discipline. Allowed imports are the
# composition surfaces plus the leaf planes the fleet reports through.
bad=""
for f in internal/fleet/*.go; do
	while IFS= read -r imp; do
		case "$imp" in
		repro/multics | repro/internal/core | repro/internal/netattach | \
			repro/internal/workload | repro/internal/metrics | \
			repro/internal/trace | repro/internal/faults) ;;
		# mem is boot-time configuration only (core.Config.Mem), the same
		# surface workload.Boot parameterizes; it is not a runtime reach-in.
		repro/internal/mem) ;;
		repro/*)
			bad="$bad
$f: imports $imp"
			;;
		esac
	done <<-EOF
	$(sed -n 's/^[[:space:]]*"\(repro\/[^"]*\)"$/\1/p' "$f")
	EOF
done
if [ -n "$bad" ]; then
	echo "internal/fleet reaching past the kernel composition surfaces:$bad" >&2
	exit 1
fi

echo "== hierarchy cache-invalidation lint"
# Every hierarchy mutation that changes what a cached decision or cached
# path prefix was derived from must bump the owning object's generation
# counter inside the mutating function — that is the entire revocation-
# safety argument (DESIGN.md "Hierarchy caches"). ACL/label mutators must
# call bumpACLGen; entry-map mutators must call bumpEntGen. The lint
# extracts each mutator's body from internal/fs/fs.go and fails if the
# required bump call is missing.
check_bump() {
	fn="$1"
	want="$2"
	body=$(awk -v fn="$fn" '
		$0 ~ "^func \\(h \\*Hierarchy\\) " fn "\\(" { in_fn = 1 }
		in_fn { print }
		in_fn && /^}/ { exit }
	' internal/fs/fs.go)
	if [ -z "$body" ]; then
		echo "cache-invalidation lint: mutator $fn not found in internal/fs/fs.go" >&2
		exit 1
	fi
	if ! printf '%s' "$body" | grep -q "$want"; then
		echo "cache-invalidation lint: $fn does not call $want — a cached decision could outlive the mutation" >&2
		exit 1
	fi
}
check_bump Create bumpEntGen
check_bump AddLink bumpEntGen
check_bump Delete bumpEntGen
check_bump Delete bumpACLGen
check_bump Rename bumpEntGen
check_bump SetACL bumpACLGen
check_bump RemoveACL bumpACLGen
check_bump Reclassify bumpACLGen

echo "== data-path os-import lint"
# Every byte the kernel persists flows through mem.BackingStore, and the
# only package allowed to touch the host OS for data-path I/O is the
# durable implementation behind it: internal/blockstore. An "os" import
# in any storage-stack package above it means bytes are escaping the
# journal's torn-write/replay discipline. (cmd/* binaries may use os for
# flags and exit codes; they are drivers, not the data path.)
bad=""
for f in $(grep -rl '"os"' --include='*.go' \
	internal/mem/ internal/pagectl/ internal/fs/ internal/core/ \
	internal/iosys/ internal/machine/ internal/boot/ internal/kst/ \
	internal/workload/ multics/ 2>/dev/null | grep -v '_test\.go$' || true); do
	bad="$bad
$f"
done
if [ -n "$bad" ]; then
	echo "os imported in a data-path package above blockstore (all bytes flow through BackingStore):$bad" >&2
	exit 1
fi

echo "== trace-alias lint"
# The gate.Trace*/gate.Stage* compatibility aliases are deleted: the
# trace spine has one set of names, in repro/internal/trace. Any file
# spelling the old names is depending on a surface that no longer
# exists (or worse, re-growing it).
bad=""
for f in $(grep -rl 'gate\.Trace\(Event\|Ring\|Sink\|Stage\)\|gate\.NewTraceRing\|gate\.Stage\(Gate\|Fault\|Sched\|Net\)' \
	--include='*.go' internal/ cmd/ multics/ examples/ ./*.go 2>/dev/null || true); do
	bad="$bad
$(grep -n 'gate\.Trace\|gate\.NewTraceRing\|gate\.Stage' "$f" | sed "s|^|$f:|")"
done
if [ -n "$bad" ]; then
	echo "deleted gate.Trace*/gate.Stage* aliases referenced (use repro/internal/trace):$bad" >&2
	exit 1
fi

echo "== engine-determinism lint"
# The execution engine's determinism guarantee (byte-identical
# transcripts at any worker count) forbids three things in engine code:
# wall-clock reads (time.Now), unseeded randomness (math/rand), and
# goroutines launched anywhere but the one barrier-protected site in
# engineworkers.go. Tests may sleep to simulate stalls, but engine
# sources themselves must be pure functions of the virtual clock.
# The persona workload sources are held to the same bar: every persona
# decision must be a pure seeded hash, or replay digests drift with
# parallelism and kernel count.
bad=""
for f in internal/sched/engine.go internal/pagectl/batch.go \
	internal/workload/persona.go internal/workload/scenario.go; do
	hits=$(grep -n 'time\.Now\|math/rand\|^\s*go \|[^a-zA-Z]go func' "$f" || true)
	if [ -n "$hits" ]; then
		bad="$bad
$(printf '%s' "$hits" | sed "s|^|$f:|")"
	fi
done
hits=$(grep -n 'time\.Now\|math/rand' internal/sched/engineworkers.go || true)
if [ -n "$hits" ]; then
	bad="$bad
$(printf '%s' "$hits" | sed 's|^|internal/sched/engineworkers.go:|')"
fi
if [ -n "$bad" ]; then
	echo "nondeterminism in execution-engine sources (wall clock / rand / stray goroutine):$bad" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== perfbench module tests (digest equals workload.RunAt, planted faults)"
# perfbench is its own module, so the root go test ./... never reaches it.
(cd perfbench && go test ./...)

echo "== bench smoke (go test -bench E14 -benchtime 1x)"
go test -run '^$' -bench E14 -benchtime 1x .

echo "== metrics-plane smoke (E16: zero overhead, parallelism-invariant export)"
out=$(go run ./cmd/experiments -run E16)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E16 metrics plane did not meet its claims" >&2
	exit 1
	;;
esac

echo "== fault-storm smoke (E15: one seeded run, salvage must be 100%)"
out=$(go run ./cmd/experiments -run E15)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E15 fault storm did not meet its claims" >&2
	exit 1
	;;
esac
if ! echo "$out" | grep -q 'salvager clean after crash'; then
	echo "E15 fault storm: salvage success not reported clean" >&2
	exit 1
fi

echo "== fleet smoke (E17: sharding scales, migration storm survives, digests identical)"
out=$(go run ./cmd/experiments -run E17)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E17 fleet scaling did not meet its claims" >&2
	exit 1
	;;
esac
if ! echo "$out" | grep -q 'identical=true'; then
	echo "E17 fleet: session digests not identical across kernel counts" >&2
	exit 1
fi

echo "== hierarchy-scale smoke (E18: million-segment tree, >=10x cached resolution, revocation-safe)"
out=$(go run ./cmd/experiments -run E18)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E18 hierarchy scale did not meet its claims" >&2
	exit 1
	;;
esac
if ! echo "$out" | grep -q 'sweep digests identical across par 1/8 and uncached: true'; then
	echo "E18: revocation sweep digests not identical across parallelism / cache modes" >&2
	exit 1
fi

echo "== crash-restore smoke (E19: seeded checkpoint, torn-write crash, byte-identical restore)"
out=$(go run ./cmd/experiments -run E19)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E19 checkpoint/restore did not meet its claims" >&2
	exit 1
	;;
esac
if ! echo "$out" | grep -q 'digest identical true'; then
	echo "E19: restored transcript digest diverged from the uninterrupted run" >&2
	exit 1
fi

echo "== execution-engine smoke (E20: deterministic parallel engine, batched page control)"
out=$(go run ./cmd/experiments -run E20)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E20 execution engine did not meet its claims" >&2
	exit 1
	;;
esac
if ! echo "$out" | grep -q 'digests identical across engine workers 1/2/8: true'; then
	echo "E20: transcripts diverged across engine parallelism" >&2
	exit 1
fi
if ! echo "$out" | grep -q 'all workers active: true'; then
	echo "E20: worker pool was not actually exercised in parallel" >&2
	exit 1
fi

echo "== persona-workload smoke (E21: seeded persona mixes, fleet-invariant digests, fuzz storm)"
out=$(go run ./cmd/experiments -run E21)
echo "$out"
case "$out" in
*MISMATCH*)
	echo "E21 persona workloads did not meet their claims" >&2
	exit 1
	;;
esac
if ! echo "$out" | grep -q 'fleet x1 == fleet x4+migration == single-kernel: true'; then
	echo "E21: persona digests diverged across kernel counts" >&2
	exit 1
fi
if ! echo "$out" | grep -q 'fuzz replay digest match: true'; then
	echo "E21: adversarial fuzz storm was not reproducible" >&2
	exit 1
fi

echo "ok"
