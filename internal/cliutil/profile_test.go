package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (err %v)", p, err)
		}
	}
}

func TestStartProfilesEmptyPathsAreNoOps(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.out")
	if _, err := StartProfiles(bad, ""); err == nil {
		t.Fatal("CPU profile into a missing directory accepted")
	}
}
