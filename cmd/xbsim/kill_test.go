package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
	"xbsim/internal/program"
	"xbsim/internal/sampler"
	"xbsim/internal/serve"
	"xbsim/internal/xrand"
)

// serveChildEnv makes the test binary run main() instead of the tests,
// so the kill harness can start a real `xbsim serve` process from it.
const serveChildEnv = "XBSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(serveChildEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveChild is one `xbsim serve` process on the harness's spool.
type serveChild struct {
	cmd    *exec.Cmd
	base   string
	mu     sync.Mutex
	stderr bytes.Buffer
	done   chan struct{} // closed once stderr is drained
}

// startServe re-execs the test binary as `xbsim serve` on spool and
// waits for its "serving on" banner to learn the address.
func startServe(t *testing.T, spool string) *serveChild {
	t.Helper()
	c := &serveChild{done: make(chan struct{})}
	c.cmd = exec.Command(os.Args[0], "serve", "-spool", spool, "-addr", "127.0.0.1:0",
		"-concurrency", "2", "-workers", "2")
	c.cmd.Env = append(os.Environ(), serveChildEnv+"=1")
	pipe, err := c.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A test that fails while this process runs must not leave it behind.
	t.Cleanup(func() {
		if c.cmd.ProcessState == nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})
	addr := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.stderr.WriteString(line + "\n")
			c.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
	case <-time.After(60 * time.Second):
		t.Fatalf("serve printed no banner:\n%s", c.log())
	}
	return c
}

func (c *serveChild) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

// kill SIGKILLs the process and reaps it.
func (c *serveChild) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
	<-c.done
}

// drain SIGTERMs the process, which must drain and exit 0.
func (c *serveChild) drain(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("drained serve exited with %v:\n%s", err, c.log())
	}
	<-c.done
}

// killHarness is the state one kill-and-restart run accumulates.
type killHarness struct {
	t      *testing.T
	spool  string
	client *http.Client
	// accepted maps each job the service admitted to its canonical
	// request, as the submit response reported it.
	accepted map[string]jobqueue.Request
	// order lists accepted job IDs in admission order.
	order []string
	// served maps each job to the first result bytes seen for it.
	served map[string][]byte
}

// submit POSTs one request. A refused or cut connection (the process
// died under it) is not an admission and returns "".
func (h *killHarness) submit(base string, req serve.SubmitRequest) string {
	h.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return ""
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ""
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		h.t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		h.t.Fatal(err)
	}
	if _, ok := h.accepted[sr.Job.ID]; !ok {
		h.accepted[sr.Job.ID] = sr.Job.Request
		h.order = append(h.order, sr.Job.ID)
	}
	return sr.Job.ID
}

// see records result bytes for id, failing if they differ from bytes
// seen for it before.
func (h *killHarness) see(id string, data []byte, where string) {
	h.t.Helper()
	if prev, ok := h.served[id]; !ok {
		h.served[id] = data
	} else if !bytes.Equal(prev, data) {
		h.t.Errorf("job %s has two different results (%s): %d and %d bytes", id, where, len(prev), len(data))
	}
}

// collect GETs every accepted job's result and reports how many are
// available.
func (h *killHarness) collect(base string) int {
	h.t.Helper()
	n := 0
	for _, id := range h.order {
		resp, err := h.client.Get(base + "/jobs/" + id + "/result")
		if err != nil {
			h.t.Fatalf("result of %s: %v", id, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			h.t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			h.see(id, data, "served")
			n++
		case http.StatusConflict:
		default:
			h.t.Fatalf("result of %s: status %d: %s", id, resp.StatusCode, data)
		}
	}
	return n
}

// spoolState counts job files per state directory.
func (h *killHarness) spoolState() map[jobqueue.State]int {
	counts := map[jobqueue.State]int{}
	for _, st := range []jobqueue.State{jobqueue.StatePending, jobqueue.StateRunning, jobqueue.StateDone, jobqueue.StateFailed} {
		files, _ := filepath.Glob(filepath.Join(h.spool, "jobs", string(st), "*.json"))
		counts[st] = len(files)
	}
	return counts
}

// checkSpool is what must hold after every kill: the spool loads with
// no errors and no failed job, every stored result of a done job
// matches what was served for it, and every journal reads back.
func (h *killHarness) checkSpool() {
	h.t.Helper()
	sp, err := jobqueue.OpenSpool(h.spool)
	if err != nil {
		h.t.Fatal(err)
	}
	jobs, errs := sp.Load()
	if len(errs) > 0 {
		h.t.Fatalf("spool load errors after a kill: %v", errs)
	}
	for _, j := range jobs {
		switch j.State {
		case jobqueue.StateFailed:
			h.t.Errorf("job %s failed: %s", j.ID, j.Error)
		case jobqueue.StateDone:
			data, err := sp.ReadResult(j.ID)
			if err != nil {
				h.t.Fatalf("done job %s has no result: %v", j.ID, err)
			}
			h.see(j.ID, data, "stored")
		}
	}
	live, err := filepath.Glob(filepath.Join(h.spool, "journal", "*.jsonl"))
	if err != nil {
		h.t.Fatal(err)
	}
	for _, path := range live {
		if base := filepath.Base(path); strings.Count(base, ".") > 1 {
			continue // a rotated generation, read with its live file
		}
		checkJournal(h.t, path)
	}
}

// checkJournal reads a job journal back through obs.ReadJournal and
// requires every line but a torn final one to decode.
func checkJournal(t *testing.T, path string) {
	t.Helper()
	evs, err := obs.ReadJournal(path)
	if err != nil {
		t.Fatalf("journal %s: %v", filepath.Base(path), err)
	}
	lines, torn := 0, 0
	for _, p := range []string{obs.RotatedPath(path), path} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		lines += bytes.Count(data, []byte("\n"))
		if p == path && len(data) > 0 && data[len(data)-1] != '\n' {
			torn = 1 // the final line may or may not have decoded
		}
	}
	if len(evs) < lines || len(evs) > lines+torn {
		t.Errorf("journal %s: %d events decode from %d complete lines", filepath.Base(path), len(evs), lines)
	}
}

// The service's durability against real process death: seeded random
// programs are submitted to a child `xbsim serve`, which is SIGKILLed at
// seeded random points and restarted on the same spool, then allowed to
// finish. Every admitted job must reach done with the bytes of an
// uninterrupted in-process run, no job may ever show two different
// results, and the spool and journals must read back after every kill.
// One subtest per sampler backend.
func TestServeSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("starts serve processes")
	}
	for _, tc := range []struct {
		backend  string
		programs int
	}{
		{sampler.BackendSimPoint, 12},
		{sampler.BackendStratified, 8},
	} {
		t.Run(tc.backend, func(t *testing.T) { runKillHarness(t, tc.backend, tc.programs, 4) })
	}
}

// midJob reports whether a running job has checkpointed some but not
// all of its programs: a kill now makes its restart resume from them.
func (h *killHarness) midJob() bool {
	running, _ := filepath.Glob(filepath.Join(h.spool, "jobs", string(jobqueue.StateRunning), "*.json"))
	for _, f := range running {
		id := strings.TrimSuffix(filepath.Base(f), ".json")
		ckpts, _ := filepath.Glob(filepath.Join(h.spool, "ckpt", id, "*", "*.ckpt.json"))
		if n := len(ckpts); n > 0 && n < len(h.accepted[id].Specs) {
			return true
		}
	}
	return false
}

// resumed counts the programs the service loaded from a checkpoint
// instead of running, over every job journal.
func (h *killHarness) resumed() int {
	n := 0
	for _, id := range h.order {
		evs, err := obs.ReadJournal(filepath.Join(h.spool, "journal", id+".jsonl"))
		if err != nil {
			h.t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Kind == "checkpoint" && ev.Detail == "loaded" {
				n++
			}
		}
	}
	return n
}

func runKillHarness(t *testing.T, backend string, programs, kills int) {
	start := time.Now()
	rng := xrand.New("killtest/" + backend)
	h := &killHarness{
		t:        t,
		spool:    t.TempDir(),
		client:   &http.Client{Timeout: 30 * time.Second},
		accepted: map[string]jobqueue.Request{},
		served:   map[string][]byte{},
	}
	// The work: the seeded program population, two programs a job, so a
	// kill can land between a job's checkpoints.
	var reqs []serve.SubmitRequest
	for i := 0; i < programs; i += 2 {
		req := serve.SubmitRequest{Preset: "quick"}
		req.Config.IntervalSize = 8000
		req.Config.Sampler = backend
		req.Specs = []program.Spec{program.RandomSpec(1, i), program.RandomSpec(1, i+1)}
		reqs = append(reqs, req)
	}

	landedRunning := 0
	for k := 0; k < kills; k++ {
		c := startServe(t, h.spool)
		h.collect(c.base)
		// A duplicate of earlier work must land on the same job.
		if len(h.order) > 0 {
			id := h.order[rng.Intn(len(h.order))]
			if got := h.submit(c.base, serve.SubmitRequest{Request: h.accepted[id]}); got != "" && got != id {
				t.Errorf("resubmitted job %s came back as %s", id, got)
			}
		}
		for _, req := range reqs[k*len(reqs)/kills : (k+1)*len(reqs)/kills] {
			h.submit(c.base, req)
		}
		// The first kill lands once a job is running, the second once a
		// job is between its checkpoints; the rest pick one of those or
		// a seeded delay.
		modes := []string{"running", "mid-job", "timed"}
		mode := modes[min(k, 2)]
		if k >= 2 {
			mode = modes[rng.Intn(len(modes))]
		}
		wait := func(ready func() bool) {
			deadline := time.Now().Add(10 * time.Second)
			for !ready() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
		switch mode {
		case "running":
			wait(func() bool { return h.spoolState()[jobqueue.StateRunning] > 0 })
		case "mid-job":
			wait(h.midJob)
		default:
			time.Sleep(time.Duration(rng.Intn(60)) * time.Millisecond)
		}
		c.kill(t)
		st := h.spoolState()
		if st[jobqueue.StateRunning] > 0 {
			landedRunning++
		}
		t.Logf("kill %d (%s): pending %d, running %d, done %d, failed %d",
			k+1, mode, st[jobqueue.StatePending], st[jobqueue.StateRunning], st[jobqueue.StateDone], st[jobqueue.StateFailed])
		h.checkSpool()
	}
	if landedRunning == 0 {
		t.Errorf("no kill landed while a job was running")
	}

	// The last incarnation runs everything to done, then drains.
	c := startServe(t, h.spool)
	deadline := time.Now().Add(60 * time.Second)
	for h.collect(c.base) < len(h.order) {
		if time.Now().After(deadline) {
			c.kill(t)
			t.Fatalf("%d of %d jobs finished:\n%s", len(h.served), len(h.order), c.log())
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.drain(t)
	h.checkSpool()
	if st := h.spoolState(); st[jobqueue.StateDone] != len(h.order) {
		t.Errorf("spool after drain: %v, want %d done", st, len(h.order))
	}
	resumed := h.resumed()
	if resumed == 0 {
		t.Errorf("no restart resumed a program from its checkpoint")
	}

	// Each result must equal an uninterrupted in-process run of the
	// same request.
	for _, id := range h.order {
		req := h.accepted[id]
		suite, err := experiment.RunSpecsCtx(context.Background(), req.Specs, req.Config)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := suite.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.served[id], want.Bytes()) {
			t.Errorf("job %s: served result differs from an uninterrupted run", id)
		}
	}
	t.Logf("%s: %d programs in %d jobs, %d kills (%d while running), %d programs resumed from checkpoints, %.1fs",
		backend, programs, len(h.order), kills, landedRunning, resumed, time.Since(start).Seconds())
}
