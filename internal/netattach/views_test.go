package netattach_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
	"repro/multics"
)

// TestStatsViewMatchesNetCounters pins Frontend.Stats() to the net.*
// counters that count its lifecycle events: after a seeded storm, on the
// legacy path and the consolidated one, under a connection fault plan,
// every lifecycle field reads exactly its registry counter.
func TestStatsViewMatchesNetCounters(t *testing.T) {
	for _, stage := range []multics.Stage{multics.StageBaseline, multics.StageRestructured} {
		t.Run(stage.String(), func(t *testing.T) {
			sc := workload.NewScenario("net-view", 75).
				Mix(workload.Stormer(24, 24, 0), 1).
				Sessions(16).
				Faults(&faults.Spec{Seed: 7, ConnStallRate: 0.05, ConnResetRate: 0.05})
			sys, err := workload.Boot(stage, sc)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Shutdown)
			if _, err := workload.Run(sys, sc); err != nil {
				t.Fatal(err)
			}
			st := sys.Frontend().Stats()
			reg := sys.Kernel.Services().Metrics
			for _, c := range []struct {
				name    string
				view    int64
				nonzero bool
			}{
				{"net.accepted", st.Accepted, true},
				{"net.rejected", st.Rejected, false},
				{"net.delivered", st.Delivered, true},
				{"net.processed", st.Processed, true},
				{"net.replies", st.Replies, true},
				{"net.reply_drops", st.ReplyDrops, false},
				{"net.throttled", st.Throttled, false},
				{"net.stalls", st.Stalls, true},
				{"net.resets", st.Resets, true},
				{"net.input_lost", st.InputLost, stage == multics.StageBaseline},
				{"net.reply_lost", st.ReplyLost, false},
			} {
				if got := reg.Counter(c.name).Value(); got != c.view {
					t.Errorf("%s = %d, Stats reads %d", c.name, got, c.view)
				}
				if c.nonzero && c.view == 0 {
					t.Errorf("%s: the storm never exercised it", c.name)
				}
			}
		})
	}
}
