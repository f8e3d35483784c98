package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// entries lists dir's file names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, want := range []string{"old\n", "new\n"} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only f.json", names)
	}
}

// A rename that fails (here: the target is a non-empty directory) must
// remove the temp file and leave the target as it was.
func TestFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("data")); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "target" {
		t.Fatalf("directory holds %v after a failed rename, want only target", names)
	}
	if names := entries(t, path); len(names) != 1 || names[0] != "keep" {
		t.Fatalf("target changed to %v", names)
	}
}

// A temp file that cannot be created (the directory is missing) fails
// before anything is written.
func TestFailedCreateWritesNothing(t *testing.T) {
	dir := t.TempDir()
	if err := Write(filepath.Join(dir, "missing", "f.json"), []byte("data")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if names := entries(t, dir); len(names) != 0 {
		t.Fatalf("directory holds %v after a failed write", names)
	}
}
