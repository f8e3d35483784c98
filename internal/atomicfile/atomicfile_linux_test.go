package atomicfile

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// A write that fails part way (here: the file size limit is lower than
// the data, so write returns EFBIG) must remove the temp file and leave
// the target's old contents in place.
func TestFailedWriteLeavesTargetUnchanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := Write(path, []byte("old\n")); err != nil {
		t.Fatal(err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skip("no file size limit:", err)
	}
	small := lim
	small.Cur = 16
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &small); err != nil {
		t.Skip("cannot lower the file size limit:", err)
	}
	err := Write(path, make([]byte, 64))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("write past the file size limit succeeded")
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "f.json" {
		t.Fatalf("directory holds %v after a failed write, want only f.json", names)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old\n" {
		t.Fatalf("target now %q, %v; want the old contents", got, err)
	}
}
