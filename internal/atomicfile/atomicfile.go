// Package atomicfile writes files so that readers, and a process that
// dies mid-write, see either the old contents or the new ones, never a
// torn file.
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// Write writes data to path through a temp file in the same directory
// and an atomic rename. On any failure the temp file is removed and
// path is left as it was.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
