package obs

import (
	"fmt"
	"io"
	"sync"
)

// Progress renders "progress" events as lines on a writer, one per
// event. Benchmark, Binary and Stage locate the update; Done and Total,
// when Total > 0, report suite-level completion (benchmarks finished
// out of benchmarks requested). It is safe for concurrent use; a nil
// *Progress discards events.
type Progress struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgress returns a reporter writing to w.
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w}
}

// Report renders one event, e.g.:
//
//	xbsim: gcc (32u) gated simulation
//	xbsim: [3/5] gcc done
func (p *Progress) Report(ev PipelineEvent) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case ev.Total > 0 && ev.Binary == "":
		fmt.Fprintf(p.w, "xbsim: [%d/%d] %s %s\n", ev.Done, ev.Total, ev.Benchmark, ev.Stage)
	case ev.Binary != "":
		fmt.Fprintf(p.w, "xbsim: %s (%s) %s\n", ev.Benchmark, ev.Binary, ev.Stage)
	default:
		fmt.Fprintf(p.w, "xbsim: %s %s\n", ev.Benchmark, ev.Stage)
	}
}
