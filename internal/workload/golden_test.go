package workload_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
	"repro/multics"
)

// The golden digests below were recorded from cmd/loadgen and pin the
// replay engine's output byte for byte: any change to how sessions are
// dialed, stormed, drained or folded shows up here first. Each scenario
// is composed exactly as loadgen composes it for the quoted flags.

type goldenDigests struct {
	digest, session, schedule, trace string
}

func checkGolden(t *testing.T, r *workload.Report, want goldenDigests) {
	t.Helper()
	got := goldenDigests{r.Digest, r.SessionDigest, r.ScheduleDigest, r.TraceDigest}
	if got != want {
		t.Errorf("digests moved:\n got  %+v\n want %+v", got, want)
	}
}

// TestGoldenStormDigests pins `loadgen` with its defaults: 100 stormer
// sessions of 24 steps, seed 75, on the S6 kernel.
func TestGoldenStormDigests(t *testing.T) {
	sc := workload.NewScenario("storm", 75).Mix(workload.Stormer(24, 0, 0), 1).Sessions(100)
	r, err := workload.RunAt(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r, goldenDigests{
		digest:   "e4bd423b2c1d041dda12e4e5b4fc288f8117634032e69444bb25bed08fa9f637",
		session:  "f323a905faadeaae301d66db58addb34982cd814b6ed87d260cfdeaacf58a632",
		schedule: "bc36c2e038d48875806412f29df0360bc7b2cf5b892252fb74afa5b26604eb50",
		trace:    "8e2c560c9537a534fc2b7eac6964f50bb99a6df49226f750432db070a29fb1fa",
	})
}

// TestGoldenOfficeOpenLoopDigests pins `loadgen -n 24 -scenario office
// -arrival open:3`: the default office mix under open-loop arrivals.
func TestGoldenOfficeOpenLoopDigests(t *testing.T) {
	sc := workload.NewScenario("office", 75).Sessions(24).
		Mix(workload.InteractiveEditor(), 3).
		Mix(workload.BatchCompiler(), 2).
		Mix(workload.Daemon(), 1).
		Mix(workload.TenantPair(), 2).
		OpenLoop(3)
	r, err := workload.RunAt(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r, goldenDigests{
		digest:   "29a19fbb907c61e990901f72e79110a5e8bb116d141e4b4da1d30c3e2589fafd",
		session:  "91254ef3d07c9c78b3c1c7288fd40f73af18fdffed97c96ddab17458153f205e",
		schedule: "0e68cdca483865714a74f371c6abc873efc45d1dd1f3b201c35a69fe93bc03e5",
		trace:    "2d30ed04fa06676a739714effd870d48f85c875eb07f5c8fc43ad543e816c884",
	})
}

// TestGoldenFaultStormDigests pins `loadgen -n 32 -fault-rate 0.01
// -fault-seed 7`: the default storm under a seeded 1% fault plan.
func TestGoldenFaultStormDigests(t *testing.T) {
	spec := faults.UniformSpec(7, 0.01, 0)
	sc := workload.NewScenario("storm", 75).Mix(workload.Stormer(24, 0, 0), 1).Sessions(32).Faults(&spec)
	r, err := workload.RunAt(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r, goldenDigests{
		digest:   "2e96ad472e46154d6d85a03bb5c57eb95a60a9e67149a5fe7b2970392061b761",
		session:  "e5d28bfc924d9e2026145829546392a993365c1cf5145d49a5f3bb443971df79",
		schedule: "52674d22f9002833e04e76c160f799c9c1d306adb66980e56a3836e0be5a9f7d",
		trace:    "e36156cd2c2c487ce77b61babbecac02fa4e3394711981010834f4398b4f6259",
	})
}

// TestGoldenWindowTranscript pins the windowed replay of `loadgen -n 32
// -store F -checkpoint-every 8`: three consecutive RunWindow calls of
// eight steps each fold into one transcript. The reply transcript does
// not depend on the backing store, so the volatile default stands in
// for the journal file.
func TestGoldenWindowTranscript(t *testing.T) {
	sc := workload.NewScenario("storm", 75).Mix(workload.Stormer(24, 0, 0), 1).Sessions(32)
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	tr := workload.NewTranscript(32)
	for lo := 0; lo < 24; lo += 8 {
		if err := workload.RunWindow(sys, sc, tr, lo, lo+8); err != nil {
			t.Fatalf("window [%d, %d): %v", lo, lo+8, err)
		}
	}
	if sent, received, throttled := tr.Counts(); sent != 768 || received != 768 || throttled != 0 {
		t.Errorf("sent %d received %d throttled %d, want 768 768 0", sent, received, throttled)
	}
	const want = "571be641cc411952467d7ae89d3182aa5237777d9b5e1412ccb785e92976d648"
	if got := tr.Digest(); got != want {
		t.Errorf("transcript digest %s, want %s", got, want)
	}
}
