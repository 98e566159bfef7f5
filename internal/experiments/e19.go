package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/mls"
	"repro/internal/workload"
	"repro/multics"
)

// E19 is the checkpoint/restore experiment: the durable backing store's
// recovery contract, asserted end to end against real journal bytes.
//
// Two arms per run, same seed, and the whole pair runs twice:
//
//   - Reference: boot over a durable blockstore, run the scripted traffic
//     in two windows, record the transcript digest.
//   - Crash: run window one, checkpoint (the transcript snapshot rides the
//     manifest's Meta), run window two — whose work is acknowledged to no
//     one — then start a second checkpoint flush and kill the store
//     mid-journal: the fault plane tears a seeded portion of the unsynced
//     tail, leaving a torn final record. Reopen replays the truncated
//     journal, core.Restore rebuilds the kernel from the manifest, the
//     salvager verifies the hierarchy, and the restored transcript resumes
//     window two against the restored system.
//
// Claims: every acknowledged write (every page the checkpoint covered) is
// byte-identical after recovery; the resumed transcript digest equals the
// uninterrupted reference digest; both hold again on a second run.
const (
	e19Seed  = 1975
	e19Conns = 8
	e19Steps = 16
)

func e19Scenario() *workload.Scenario {
	return workload.NewScenario("e19-storm", e19Seed).
		Mix(workload.Stormer(e19Steps, 4, 4), 1).
		Sessions(e19Conns)
}

// e19Pages is how many data pages each arm plants before the checkpoint.
const e19Pages = 6

var (
	e19Who  = fs.Principal{Person: "Ckpt", Project: "E19", Tag: "a"}
	e19Self = mls.NewLabel(mls.Unclassified)
)

// e19Plant creates >e19>data and touches e19Pages pages with seeded words:
// the storage-system writes whose checkpoint barrier defines "acknowledged".
func e19Plant(k *core.Kernel) (uint64, error) {
	hier := k.Services().Hierarchy
	store := k.Services().Store
	dir, err := hier.Create(e19Who, e19Self, fs.RootUID, "e19",
		fs.CreateOptions{Kind: fs.KindDirectory, Label: e19Self})
	if err != nil {
		return 0, fmt.Errorf("e19 dir: %w", err)
	}
	words := store.Config().PageWords
	uid, err := hier.Create(e19Who, e19Self, dir, "data",
		fs.CreateOptions{Kind: fs.KindSegment, Label: e19Self, Length: e19Pages * words})
	if err != nil {
		return 0, fmt.Errorf("e19 data segment: %w", err)
	}
	for p := 0; p < e19Pages; p++ {
		pid := mem.PageID{SegUID: uid, Index: p}
		f, err := store.MaterializeZero(pid)
		if err != nil {
			return 0, fmt.Errorf("materialize %v: %w", pid, err)
		}
		if err := store.WriteWord(f, 1, uint64(0xE1900+p)); err != nil {
			return 0, fmt.Errorf("write %v: %w", pid, err)
		}
	}
	return uid, nil
}

// e19Mutate overwrites the planted pages — post-checkpoint work the crash
// must erase, and the source of the unsynced journal tail the tear bites.
func e19Mutate(k *core.Kernel, uid uint64) error {
	store := k.Services().Store
	for p := 0; p < e19Pages; p++ {
		pid := mem.PageID{SegUID: uid, Index: p}
		if f, _, err := store.PageIn(pid); err == nil {
			if err := store.WriteWord(f, 1, uint64(0x9990+p)); err != nil {
				return err
			}
			continue
		}
		loc, err := store.Locate(pid)
		if err != nil {
			return fmt.Errorf("locate %v: %w", pid, err)
		}
		if loc.Level != mem.LevelCore {
			return fmt.Errorf("page %v at level %v, expected core", pid, loc.Level)
		}
		if err := store.WriteWord(loc.Frame, 1, uint64(0x9990+p)); err != nil {
			return err
		}
	}
	return nil
}

// e19Boot opens a blockstore on media and boots a system over it.
func e19Boot(sc *workload.Scenario, media *blockstore.MemMedia) (*multics.System, *blockstore.Store, error) {
	bs, _, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		return nil, nil, err
	}
	sc.Backing(bs)
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		return nil, nil, err
	}
	return sys, bs, nil
}

// e19Reference runs the traffic uninterrupted (same window structure as
// the crash arm: two login sessions per connection) and returns the
// transcript digest.
func e19Reference() (string, error) {
	sc := e19Scenario()
	sys, _, err := e19Boot(sc, blockstore.NewMemMedia())
	if err != nil {
		return "", err
	}
	defer sys.Shutdown()
	uid, err := e19Plant(sys.Kernel)
	if err != nil {
		return "", err
	}
	tr := workload.NewTranscript(e19Conns)
	half := e19Steps / 2
	if err := workload.RunWindow(sys, sc, tr, 0, half); err != nil {
		return "", err
	}
	if err := e19Mutate(sys.Kernel, uid); err != nil {
		return "", err
	}
	if err := workload.RunWindow(sys, sc, tr, half, e19Steps); err != nil {
		return "", err
	}
	return tr.Digest(), nil
}

// e19CrashResult is one crash arm's outcome.
type e19CrashResult struct {
	Digest          string
	AckedPages      int
	RecoveredPages  int
	TornBytes       int64
	ReplayRecords   int
	SalvageProblems int
	CheckpointPages int
}

// e19Crash runs the checkpoint → torn-write crash → restore arm.
func e19Crash() (*e19CrashResult, error) {
	sc := e19Scenario()
	media := blockstore.NewMemMedia()
	sys, bs, err := e19Boot(sc, media)
	if err != nil {
		return nil, err
	}
	shutdown := sys.Shutdown
	defer func() { shutdown() }()

	uid, err := e19Plant(sys.Kernel)
	if err != nil {
		return nil, err
	}
	tr := workload.NewTranscript(e19Conns)
	half := e19Steps / 2
	if err := workload.RunWindow(sys, sc, tr, 0, half); err != nil {
		return nil, err
	}
	snap, err := tr.Snapshot()
	if err != nil {
		return nil, err
	}
	ckRep, err := sys.Checkpoint(map[string]string{"transcript": snap, "experiment": "E19"})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	// The acknowledged writes: every page the checkpoint covered, with
	// its bytes as of the barrier. Recovery must reproduce all of them.
	manBytes, err := bs.Manifest()
	if err != nil {
		return nil, err
	}
	man, err := core.DecodeManifest(manBytes)
	if err != nil {
		return nil, err
	}
	acked := make(map[mem.PageID][]uint64)
	for _, seg := range man.Segments {
		for _, idx := range seg.Pages {
			pid := mem.PageID{SegUID: seg.UID, Index: idx}
			data, err := bs.CheckpointBlock(pid)
			if err != nil {
				return nil, fmt.Errorf("acked page %v unreadable at checkpoint: %w", pid, err)
			}
			acked[pid] = data
		}
	}

	// Window two: work the crash will erase. Nothing here is synced, so
	// nothing here is acknowledged — including the page overwrites, whose
	// journal records form the unsynced tail the tear bites into.
	if err := e19Mutate(sys.Kernel, uid); err != nil {
		return nil, err
	}
	if err := workload.RunWindow(sys, sc, tr, half, e19Steps); err != nil {
		return nil, err
	}
	// A second checkpoint flush starts — write-through records land in the
	// journal — and the machine dies before the manifest commits: the
	// classic mid-journal kill, leaving a long unsynced tail to tear.
	store := sys.Kernel.Services().Store
	for _, uid := range store.SegmentUIDs() {
		if _, err := store.FlushSegment(uid); err != nil {
			return nil, err
		}
	}
	sys.Shutdown()
	shutdown = func() {}
	// Close releases the journal without syncing: buffered records reach
	// the media the way an exiting process's writes reach the OS, and all
	// of them are still fair game for the tear.
	if err := bs.Close(); err != nil {
		return nil, err
	}

	// The crash: the fault plane tears the unsynced tail at a seeded
	// offset, then the reopen callback replays the journal and restores
	// the kernel; the salvager then checks the restored hierarchy.
	inj := faults.NewInjector(faults.MustCompile(faults.Spec{Seed: e19Seed}), nil, nil)
	var (
		bs2  *blockstore.Store
		rep2 *blockstore.RecoveryReport
		k2   *core.Kernel
		res  *core.RestoreReport
	)
	_, salv, err := inj.CrashStorage(media, func() (*fs.Hierarchy, error) {
		var oerr error
		bs2, rep2, oerr = blockstore.Open(blockstore.Config{Media: media})
		if oerr != nil {
			return nil, oerr
		}
		// The restored kernel manages its own store; size core memory the
		// way Boot would, but without re-attaching the backing store.
		mc := workload.MemConfig(sc)
		k2, res, oerr = core.Restore(core.Config{Mem: &mc}, bs2)
		if oerr != nil {
			return nil, oerr
		}
		return k2.Services().Hierarchy, nil
	})
	if err != nil {
		return nil, fmt.Errorf("crash-restore: %w", err)
	}
	shutdown = k2.Shutdown

	out := &e19CrashResult{
		AckedPages:      len(acked),
		TornBytes:       rep2.TornBytes,
		ReplayRecords:   rep2.Records,
		SalvageProblems: len(salv.Problems),
		CheckpointPages: ckRep.PagesFlushed,
	}
	for pid, want := range acked {
		got, err := bs2.CheckpointBlock(pid)
		if err != nil {
			continue
		}
		if len(got) == len(want) {
			same := true
			for i := range got {
				if got[i] != want[i] {
					same = false
					break
				}
			}
			if same {
				out.RecoveredPages++
			}
		}
	}

	// Resume: adopt the restored kernel, re-register the accounts (the
	// user registry is outside the checkpoint by design), restore the
	// transcript from the manifest, and replay window two.
	sys2, err := multics.Adopt(k2)
	if err != nil {
		return nil, err
	}
	shutdown = sys2.Shutdown
	if err := workload.RegisterUsers(sys2, sc); err != nil {
		return nil, err
	}
	tr2, err := workload.RestoreTranscript(res.Meta["transcript"])
	if err != nil {
		return nil, err
	}
	if err := workload.RunWindow(sys2, sc, tr2, half, e19Steps); err != nil {
		return nil, fmt.Errorf("resumed window: %w", err)
	}
	out.Digest = tr2.Digest()
	return out, nil
}

// E19CheckpointRestore regenerates the recovery claim: a checkpointed
// system crashed mid-journal recovers every acknowledged write and
// resumes to a transcript digest byte-identical to the uninterrupted run,
// on each of two runs.
func E19CheckpointRestore() Report {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-12s %-11s %-9s %-8s %s\n",
		"run", "digests", "acked pages", "torn bytes", "records", "salvage", "transcript")
	pass := true
	measured := make([]string, 0, 2)
	for run := 1; run <= 2; run++ {
		ref, err := e19Reference()
		if err != nil {
			return e19Fail(fmt.Sprintf("reference arm (run %d): %v", run, err))
		}
		cr, err := e19Crash()
		if err != nil {
			return e19Fail(fmt.Sprintf("crash arm (run %d): %v", run, err))
		}
		identical := ref == cr.Digest
		full := cr.RecoveredPages == cr.AckedPages && cr.AckedPages > 0
		clean := cr.SalvageProblems == 0
		if !identical || !full || !clean {
			pass = false
		}
		fmt.Fprintf(&b, "%-6d %-10v %3d/%-8d %-11d %-9d %-8d %s\n",
			run, identical, cr.RecoveredPages, cr.AckedPages,
			cr.TornBytes, cr.ReplayRecords, cr.SalvageProblems, cr.Digest[:16])
		measured = append(measured,
			fmt.Sprintf("run %d: %d/%d acked pages recovered, digest identical %v",
				run, cr.RecoveredPages, cr.AckedPages, identical))
	}
	return Report{
		ID:    "E19",
		Title: "Checkpoint, torn-write crash, restore",
		PaperClaim: "the file system can be stopped and restarted without operator intervention; " +
			"after a crash the salvager and the backup hierarchy bring the storage system back " +
			"to a consistent state with no acknowledged work lost",
		Table:    b.String(),
		Measured: strings.Join(measured, "; "),
		Pass:     pass,
	}
}

func e19Fail(msg string) Report {
	return Report{
		ID:         "E19",
		Title:      "Checkpoint, torn-write crash, restore",
		PaperClaim: "crash recovery loses no acknowledged work",
		Measured:   msg,
		Pass:       false,
	}
}
