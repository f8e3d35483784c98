// Package atomicfile writes files so that readers, and a process that
// dies mid-write, see either the old contents or the new ones, never a
// torn file; and so that a write that returned survives an OS crash.
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// Write writes data to path through a temp file in the same directory,
// in four steps: write the temp file, sync it, rename it over path, and
// sync the directory. The first sync keeps the rename from publishing
// contents that never reached disk; the second makes the rename itself
// durable. On any failure before the rename the temp file is removed and
// path is left as it was.
func Write(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
