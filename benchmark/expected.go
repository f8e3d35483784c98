package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"

	"xbsim/internal/experiment"
)

// expectedJSON holds the suite fingerprint each batch workload must
// produce, by workload and decimal seed. A run at a recorded seed is
// checked against it; at any other seed the runs must agree with each
// other. Regenerate entries with -record after a change that is meant
// to alter results.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]map[string]string {
	m := map[string]map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("embedded expected.json: %v", err))
	}
	return m
}()

// recordExpected runs each batch workload once at seed and stores its
// suite fingerprint in the file at path, keeping the entries already
// there.
func recordExpected(path string, ws []workload, seed uint64, stderr io.Writer) int {
	runtime.GOMAXPROCS(procs)
	table := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		err = json.Unmarshal(data, &table)
	case errors.Is(err, fs.ErrNotExist):
		err = nil
	}
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: %s: %v\n", path, err)
		return 1
	}
	for _, w := range ws {
		if w.Config == nil {
			continue
		}
		suite, err := experiment.RunCtx(context.Background(), w.Config(seed, false))
		if err != nil {
			fmt.Fprintf(stderr, "xbbench: %s: %v\n", w.Name, err)
			return 1
		}
		if table[w.Name] == nil {
			table[w.Name] = map[string]string{}
		}
		table[w.Name][fmt.Sprint(seed)] = suite.Fingerprint()
		fmt.Fprintf(stderr, "xbbench: %s seed %d: %s\n", w.Name, seed, suite.Fingerprint())
	}
	data, err = json.MarshalIndent(table, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: %v\n", err)
		return 1
	}
	return 0
}
