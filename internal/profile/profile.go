// Package profile provides the Pin-substitute instrumentation layer: the
// call/branch profiler the mapping step consumes (paper §3.2.1) and the
// interval BBV collectors that feed SimPoint — fixed length intervals
// (FLIs) for the per-binary baseline and variable length intervals (VLIs)
// cut at mappable markers for cross-binary SimPoint (§3.2.3).
//
// All collectors are exec.Visitors, so one execution can feed several of
// them through exec.Multi.
package profile

import (
	"context"
	"fmt"

	"xbsim/internal/bbv"
	"xbsim/internal/compiler"
	"xbsim/internal/exec"
	"xbsim/internal/program"
)

// ProcProfile is the execution profile of one symbolled procedure.
type ProcProfile struct {
	// Symbol is the procedure name.
	Symbol string
	// Line is the procedure's source line from debug info.
	Line int
	// Marker is the binary-local proc-entry marker ID.
	Marker int
	// Count is how many times the procedure was entered.
	Count uint64
}

// LoopProfile is the execution profile of one lowered loop piece: its entry
// point and its body (back edge), the two structures the paper profiles
// separately ("loop entry" vs "loop body", §3.2.1).
type LoopProfile struct {
	// EntryMarker and BodyMarker are binary-local marker IDs.
	EntryMarker, BodyMarker int
	// Line is the debug line of the loop branch, 0 when the optimizer
	// destroyed line info (inlined clones, restructured loops).
	Line int
	// EnclosingSymbol is the symbol of the innermost symbolled procedure
	// containing the loop after inlining.
	EnclosingSymbol string
	// Piece distinguishes distributed-loop pieces.
	Piece int
	// SourceLoopID is ground truth for tests; the mapping algorithm does
	// not use it.
	SourceLoopID int
	// EntryCount is how many times the loop was entered; BodyCount how
	// many times the back edge executed (iterations / unroll groups).
	EntryCount, BodyCount uint64
}

// Profile is the complete call-and-branch profile of one binary on one
// input.
type Profile struct {
	// Binary is the profiled binary.
	Binary *compiler.Binary
	// Input is the profiled input.
	Input program.Input
	// TotalInstructions is the full dynamic instruction count.
	TotalInstructions uint64
	// Procs holds one entry per symbol, in symbol-table order.
	Procs []ProcProfile
	// Loops holds one entry per loop piece, in marker order.
	Loops []LoopProfile
}

// ProcBySymbol returns the profile of the named procedure, or nil.
func (p *Profile) ProcBySymbol(symbol string) *ProcProfile {
	for i := range p.Procs {
		if p.Procs[i].Symbol == symbol {
			return &p.Procs[i]
		}
	}
	return nil
}

// Collect runs the binary once and gathers its call-and-branch profile.
// The execution is recorded through the context's observer, if any (see
// package obs).
func Collect(ctx context.Context, bin *compiler.Binary, in program.Input) (*Profile, error) {
	ic := exec.NewInstructionCounter(bin)
	mc := exec.NewMarkerCounter(bin)
	if err := exec.RunCtx(ctx, bin, in, exec.Multi{ic, mc}); err != nil {
		return nil, err
	}
	return BuildProfile(bin, in, ic.Instructions, mc.Counts)
}

// BuildProfile assembles a Profile from already-collected marker counts,
// letting callers fold profiling into a shared execution pass.
func BuildProfile(bin *compiler.Binary, in program.Input, totalInstrs uint64, markerCounts []uint64) (*Profile, error) {
	if len(markerCounts) != len(bin.Markers) {
		return nil, fmt.Errorf("profile: %d counts for %d markers", len(markerCounts), len(bin.Markers))
	}
	p := &Profile{Binary: bin, Input: in, TotalInstructions: totalInstrs}
	// Loop entry/body markers are emitted adjacently per piece by the
	// compiler; pair them by scanning in order.
	for i := 0; i < len(bin.Markers); i++ {
		m := bin.Markers[i]
		switch m.Kind {
		case compiler.MarkerProcEntry:
			p.Procs = append(p.Procs, ProcProfile{
				Symbol: m.Symbol,
				Line:   m.Line,
				Marker: m.ID,
				Count:  markerCounts[m.ID],
			})
		case compiler.MarkerLoopEntry:
			if i+1 >= len(bin.Markers) || bin.Markers[i+1].Kind != compiler.MarkerLoopBody {
				return nil, fmt.Errorf("profile: loop-entry marker %d not followed by loop-body marker", m.ID)
			}
			body := bin.Markers[i+1]
			if body.SourceLoopID != m.SourceLoopID || body.Piece != m.Piece {
				return nil, fmt.Errorf("profile: mismatched loop marker pair %d/%d", m.ID, body.ID)
			}
			p.Loops = append(p.Loops, LoopProfile{
				EntryMarker:     m.ID,
				BodyMarker:      body.ID,
				Line:            m.Line,
				EnclosingSymbol: m.EnclosingSymbol,
				Piece:           m.Piece,
				SourceLoopID:    m.SourceLoopID,
				EntryCount:      markerCounts[m.ID],
				BodyCount:       markerCounts[body.ID],
			})
			i++ // consume the body marker
		case compiler.MarkerLoopBody:
			return nil, fmt.Errorf("profile: orphan loop-body marker %d", m.ID)
		}
	}
	return p, nil
}

// FLIResult is the output of fixed-length-interval BBV collection.
type FLIResult struct {
	// Dataset holds one BBV per interval, in execution order.
	Dataset *bbv.Dataset
	// Ends[i] is the dynamic instruction offset just past interval i; the
	// interval spans [Ends[i-1], Ends[i]) (with Ends[-1] == 0).
	Ends []uint64
}

// TotalInstructions returns the dynamic instruction count of the whole
// run: the end of the last interval, or 0 when there is none.
func (r *FLIResult) TotalInstructions() uint64 {
	if len(r.Ends) == 0 {
		return 0
	}
	return r.Ends[len(r.Ends)-1]
}

// FLICollector is an exec.Visitor that cuts intervals every Size
// instructions (at the next block boundary) and records each interval's
// basic block vector. This is per-binary SimPoint's front end (§2.1).
type FLICollector struct {
	bin  *compiler.Binary
	size uint64

	cur    *bbv.Vector
	total  uint64
	result FLIResult
}

// NewFLICollector creates a collector with the given interval size in
// instructions.
func NewFLICollector(bin *compiler.Binary, size uint64) (*FLICollector, error) {
	if size == 0 {
		return nil, fmt.Errorf("profile: zero FLI size")
	}
	return &FLICollector{
		bin:    bin,
		size:   size,
		cur:    bbv.NewVector(),
		result: FLIResult{Dataset: bbv.NewDataset()},
	}, nil
}

// OnBlock implements exec.Visitor.
func (c *FLICollector) OnBlock(block int) {
	b := &c.bin.Blocks[block]
	c.cur.Add(block, 1, b.Instrs)
	c.total += uint64(b.Instrs)
	if c.cur.Instructions() >= c.size {
		c.cut()
	}
}

// OnMarker implements exec.Visitor.
func (c *FLICollector) OnMarker(int) {}

func (c *FLICollector) cut() {
	c.result.Dataset.Append(c.cur)
	c.result.Ends = append(c.result.Ends, c.total)
	c.cur.Reset()
}

// Finish closes the trailing partial interval (if any) and returns the
// result. Call exactly once, after the run.
func (c *FLICollector) Finish() *FLIResult {
	if c.cur.Instructions() > 0 {
		c.cut()
	}
	return &c.result
}

// Boundary is a point in execution expressed as the count-th firing of a
// binary-local marker: the (marker ID, execution count) pair of §3.2.3.
// Marker == -1 with Count == 0 denotes the start of execution; Marker == -1
// with Count == 1 denotes the end.
type Boundary struct {
	Marker int
	Count  uint64
}

// BoundaryStart and BoundaryEnd are the sentinel boundaries.
var (
	BoundaryStart = Boundary{Marker: -1, Count: 0}
	BoundaryEnd   = Boundary{Marker: -1, Count: 1}
)

// VLIResult is the output of variable-length-interval collection on the
// primary binary.
type VLIResult struct {
	// Dataset holds one BBV per interval.
	Dataset *bbv.Dataset
	// Ends[i] is the boundary closing interval i. The final entry may be
	// BoundaryEnd when execution finished mid-interval. Interval i spans
	// (Ends[i-1], Ends[i]], with the block firing the closing boundary
	// included in the closing interval.
	Ends []Boundary
}

// VLICollector cuts intervals at mappable markers: an interval ends at the
// first mappable-marker firing at or after Size instructions.
type VLICollector struct {
	bin      *compiler.Binary
	size     uint64
	mappable []bool // per marker ID

	cur     *bbv.Vector
	fireCnt []uint64 // per marker ID
	result  VLIResult
}

// NewVLICollector creates a collector. mappableMarkers lists the
// binary-local marker IDs usable as interval boundaries.
func NewVLICollector(bin *compiler.Binary, size uint64, mappableMarkers []int) (*VLICollector, error) {
	if size == 0 {
		return nil, fmt.Errorf("profile: zero VLI size")
	}
	c := &VLICollector{
		bin:      bin,
		size:     size,
		mappable: make([]bool, len(bin.Markers)),
		cur:      bbv.NewVector(),
		fireCnt:  make([]uint64, len(bin.Markers)),
		result:   VLIResult{Dataset: bbv.NewDataset()},
	}
	for _, m := range mappableMarkers {
		if m < 0 || m >= len(bin.Markers) {
			return nil, fmt.Errorf("profile: mappable marker %d out of range", m)
		}
		c.mappable[m] = true
	}
	return c, nil
}

// OnBlock implements exec.Visitor.
func (c *VLICollector) OnBlock(block int) {
	b := &c.bin.Blocks[block]
	c.cur.Add(block, 1, b.Instrs)
}

// OnMarker implements exec.Visitor.
func (c *VLICollector) OnMarker(marker int) {
	c.fireCnt[marker]++
	if !c.mappable[marker] {
		return
	}
	if c.cur.Instructions() >= c.size {
		c.result.Dataset.Append(c.cur)
		c.result.Ends = append(c.result.Ends, Boundary{Marker: marker, Count: c.fireCnt[marker]})
		c.cur.Reset()
	}
}

// Finish closes the trailing partial interval with the end-of-program
// boundary and returns the result. Call exactly once, after the run.
func (c *VLICollector) Finish() *VLIResult {
	if c.cur.Instructions() > 0 {
		c.result.Dataset.Append(c.cur)
		c.result.Ends = append(c.result.Ends, BoundaryEnd)
		c.cur.Reset()
	}
	return &c.result
}

// IntervalSink receives interval-tracking callbacks from a tracker during
// a run: Transition(i) fires when interval i begins (i == 0 fires on the
// first block).
type IntervalSink interface {
	Transition(interval int)
}

// SinkFunc adapts a function to IntervalSink.
type SinkFunc func(interval int)

// Transition implements IntervalSink.
func (f SinkFunc) Transition(interval int) { f(interval) }

// VLITracker follows a boundary list during a run of ANY binary of the
// program (boundaries must be expressed in that binary's marker IDs) and
// reports interval transitions plus per-interval instruction counts. It is
// how mapped simulation points are located (§3.2.5) and how weights are
// recalculated per binary (§3.2.6).
type VLITracker struct {
	bin  *compiler.Binary
	ends []Boundary
	sink IntervalSink

	fireCnt  []uint64
	interval int
	started  bool
	// Instructions[i] accumulates dynamic instructions of interval i.
	Instructions []uint64
}

// NewVLITracker builds a tracker. ends is the boundary list closing each
// interval, already translated to this binary's marker IDs. sink may be
// nil.
func NewVLITracker(bin *compiler.Binary, ends []Boundary, sink IntervalSink) *VLITracker {
	return &VLITracker{
		bin:          bin,
		ends:         ends,
		sink:         sink,
		fireCnt:      make([]uint64, len(bin.Markers)),
		Instructions: make([]uint64, len(ends)),
	}
}

// Interval returns the current interval index (== len(ends) once past the
// last boundary).
func (t *VLITracker) Interval() int { return t.interval }

// OnBlock implements exec.Visitor.
func (t *VLITracker) OnBlock(block int) {
	if !t.started {
		t.started = true
		if t.sink != nil {
			t.sink.Transition(0)
		}
	}
	if t.interval < len(t.Instructions) {
		t.Instructions[t.interval] += uint64(t.bin.Blocks[block].Instrs)
	}
}

// OnMarker implements exec.Visitor.
func (t *VLITracker) OnMarker(marker int) {
	t.fireCnt[marker]++
	for t.interval < len(t.ends) {
		end := t.ends[t.interval]
		if end.Marker != marker || t.fireCnt[marker] != end.Count {
			break
		}
		t.interval++
		if t.sink != nil {
			t.sink.Transition(t.interval)
		}
	}
}

// FLITracker reports interval transitions for fixed-length intervals in
// the binary's own instruction counting, given the interval end offsets
// from an FLIResult.
type FLITracker struct {
	bin  *compiler.Binary
	ends []uint64
	sink IntervalSink

	total    uint64
	interval int
	started  bool
	// Instructions[i] accumulates dynamic instructions of interval i.
	Instructions []uint64
}

// NewFLITracker builds a tracker over the given interval end offsets.
func NewFLITracker(bin *compiler.Binary, ends []uint64, sink IntervalSink) *FLITracker {
	return &FLITracker{
		bin:          bin,
		ends:         ends,
		sink:         sink,
		Instructions: make([]uint64, len(ends)),
	}
}

// Interval returns the current interval index.
func (t *FLITracker) Interval() int { return t.interval }

// OnBlock implements exec.Visitor.
func (t *FLITracker) OnBlock(block int) {
	if !t.started {
		t.started = true
		if t.sink != nil {
			t.sink.Transition(0)
		}
	}
	n := uint64(t.bin.Blocks[block].Instrs)
	if t.interval < len(t.Instructions) {
		t.Instructions[t.interval] += n
	}
	t.total += n
	for t.interval < len(t.ends) && t.total >= t.ends[t.interval] {
		t.interval++
		if t.sink != nil {
			t.sink.Transition(t.interval)
		}
	}
}

// OnMarker implements exec.Visitor.
func (t *FLITracker) OnMarker(int) {}
