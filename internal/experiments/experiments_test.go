package experiments

import (
	"strings"
	"testing"

	"repro/internal/iosys"
)

func newCircular(n int) (*iosys.CircularBuffer, error) { return iosys.NewCircularBuffer(n) }

// TestAllExperimentsMatchPaperShapes is the reproduction's acceptance test:
// every regenerated result must land in the band the paper claims.
func TestAllExperimentsMatchPaperShapes(t *testing.T) {
	for _, rep := range RunAll() {
		if !rep.Pass {
			t.Errorf("%s (%s): MISMATCH — measured %s\n%s", rep.ID, rep.Title, rep.Measured, rep.Table)
		}
		if rep.ID == "" || rep.Title == "" || rep.PaperClaim == "" || rep.Measured == "" {
			t.Errorf("%s: incomplete report %+v", rep.ID, rep)
		}
	}
}

func TestReportFormat(t *testing.T) {
	rep := E4CrossRingCall()
	out := rep.Format()
	for _, want := range []string{"E4", "MATCH", "paper:", "measured:", "645", "6180"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
	rep.Pass = false
	if !strings.Contains(rep.Format(), "MISMATCH") {
		t.Error("failed report should render MISMATCH")
	}
}

func TestExperimentCount(t *testing.T) {
	reps := RunAll()
	if len(reps) != 17 {
		t.Fatalf("experiments = %d, want 17", len(reps))
	}
	seen := map[string]bool{}
	for _, r := range reps {
		if seen[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestPageFaultWorkloadDeterministic(t *testing.T) {
	a, atime, _ := PageFaultWorkload(true, 32, 100)
	b, btime, _ := PageFaultWorkload(true, 32, 100)
	if a != b || atime != btime {
		t.Errorf("workload not deterministic: %+v/%d vs %+v/%d", a, atime, b, btime)
	}
}

func TestBufferWorkloadAccounting(t *testing.T) {
	// Offered = delivered + lost for the circular buffer.
	circ, err := newCircular(8)
	if err != nil {
		t.Fatal(err)
	}
	const offered = 500
	delivered, lost := BufferWorkload(circ, offered, 16, 4)
	if delivered+lost != offered {
		t.Errorf("accounting: %d delivered + %d lost != %d offered", delivered, lost, offered)
	}
}
