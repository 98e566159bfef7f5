package fs

import (
	"fmt"
	"testing"
)

// A snapshot is one state of the hierarchy: exported beside a stream of
// creates, every snapshot must import, so no entry it carries names an
// object it lacks. The creator is bounded; the exporter loops until it
// finishes.
func TestExportSnapshotUnderCreatesImports(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "d", CreateOptions{Kind: KindDirectory})
	const creates = 2000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < creates; i++ {
			if _, err := h.Create(alice, unc, dir, fmt.Sprintf("s%d", i), CreateOptions{Label: unc}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for n := 1; ; n++ {
		data, err := h.ExportSnapshot()
		if err != nil {
			t.Fatalf("export %d: %v", n, err)
		}
		if _, err := ImportSnapshot(h.Store(), data); err != nil {
			t.Fatalf("snapshot %d: %v", n, err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d snapshots imported beside %d creates", n, creates)
			return
		default:
		}
	}
}
