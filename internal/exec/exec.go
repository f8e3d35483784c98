// Package exec deterministically executes a compiled binary, emitting the
// dynamic basic-block stream to visitors. It is the "hardware" all four
// binaries of a program run on, and the substrate the Pin-like profilers
// (internal/profile) and the CMP$im-like simulator (internal/cmpsim)
// observe.
//
// The central invariant — everything in the paper depends on it — is that
// all binaries of a program execute the same semantics on the same input:
// every loop's trip count for its i-th entry is a pure function of (input
// seed, source loop ID, i), so procedure call counts and loop iteration
// counts are identical across binaries, while the emitted block stream and
// its instruction counts are target-specific.
//
// Visitors return no errors, so a walk cannot stop itself; RunCtx makes
// it stop on cancellation instead. Its Runner polls a cancelable context
// every 4096 dynamic blocks, after the block's events, and aborts the
// walk with a sentinel panic that RunCtx recovers into the context's
// error. No visitor is added for it, so the block stream each visitor
// sees is the same with or without a cancelable context.
package exec

import (
	"context"
	"fmt"

	"xbsim/internal/compiler"
	"xbsim/internal/obs"
	"xbsim/internal/program"
	"xbsim/internal/xrand"
)

// Visitor observes a binary's dynamic execution. OnBlock is called once
// per dynamic basic-block execution, OnMarker once per marker firing
// (immediately after the OnBlock call for the marker's block).
type Visitor interface {
	OnBlock(block int)
	OnMarker(marker int)
}

// Multi fans one execution out to several visitors in order.
type Multi []Visitor

// OnBlock implements Visitor.
func (m Multi) OnBlock(block int) {
	for _, v := range m {
		v.OnBlock(block)
	}
}

// OnMarker implements Visitor.
func (m Multi) OnMarker(marker int) {
	for _, v := range m {
		v.OnMarker(marker)
	}
}

// flatten returns vs as one Multi, with every nested Multi member
// spliced in place, so a wrapped visitor costs no extra dispatch per
// event. The event order each visitor sees is unchanged.
func flatten(vs ...Visitor) Multi {
	return appendFlat(make(Multi, 0, flatLen(vs)), vs)
}

// flatLen is the length of flatten(vs...), so flatten allocates once.
func flatLen(vs []Visitor) int {
	n := len(vs)
	for _, v := range vs {
		if inner, ok := v.(Multi); ok {
			n += flatLen(inner) - 1
		}
	}
	return n
}

func appendFlat(m Multi, vs []Visitor) Multi {
	for _, v := range vs {
		if inner, ok := v.(Multi); ok {
			m = appendFlat(m, inner)
		} else {
			m = append(m, v)
		}
	}
	return m
}

// TripCount returns the number of iterations loop `spec` executes on its
// ordinal-th entry (0-based) under the given input seed. It is exported so
// tests and analyses can predict execution without running it.
func TripCount(spec program.TripSpec, seed uint64, loopID int, ordinal uint64) int {
	if spec.Jitter == 0 {
		return spec.Base
	}
	span := uint64(2*spec.Jitter + 1)
	off := int(xrand.Hash3(seed, uint64(loopID), ordinal) % span)
	return spec.Base + off - spec.Jitter
}

// Runner executes a binary. A Runner is single-use state (loop entry
// ordinals advance as it runs); create one per run.
type Runner struct {
	bin  *compiler.Binary
	seed uint64

	// trips holds each source loop's spec, indexed by loop ID (loop IDs
	// are small integers); hasTrip guards against gaps.
	trips   []program.TripSpec
	hasTrip []bool
	// ordinals counts entries per source loop ID.
	ordinals []uint64
	// markerOf maps block ID to attached marker ID, -1 if none.
	markerOf []int

	// ctx, when non-nil, is polled every cancelPollBlocks blocks (see
	// RunCtx); blocks counts the blocks emitted.
	ctx    context.Context
	blocks uint
}

// NewRunner prepares execution of the binary on the given input.
func NewRunner(bin *compiler.Binary, in program.Input) (*Runner, error) {
	if bin == nil {
		return nil, fmt.Errorf("exec: nil binary")
	}
	loops := bin.Program.Loops()
	maxID := -1
	for _, l := range loops {
		if l.ID > maxID {
			maxID = l.ID
		}
	}
	r := &Runner{
		bin:      bin,
		seed:     in.Seed,
		trips:    make([]program.TripSpec, maxID+1),
		hasTrip:  make([]bool, maxID+1),
		ordinals: make([]uint64, maxID+1),
		markerOf: make([]int, len(bin.Blocks)),
	}
	for _, l := range loops {
		r.trips[l.ID] = l.Trip
		r.hasTrip[l.ID] = true
	}
	for i := range r.markerOf {
		r.markerOf[i] = -1
	}
	for _, m := range bin.Markers {
		if r.markerOf[m.Block] != -1 {
			return nil, fmt.Errorf("exec: block %d carries two markers", m.Block)
		}
		r.markerOf[m.Block] = m.ID
	}
	return r, nil
}

// Run executes the whole program, streaming events to v.
func (r *Runner) Run(v Visitor) error {
	entry := r.bin.Entry()
	if entry == nil {
		return fmt.Errorf("exec: binary %s has no entry procedure", r.bin.Name)
	}
	r.runBody(entry, v)
	return nil
}

// RunCtx builds a Runner and executes the binary once. It is the one way
// to walk a binary, so every walk is counted and cancellable: when the
// context carries an observer it wraps the execution in an "exec.run"
// span and flushes the walk's count ("exec.runs") and aggregate
// instruction/block/marker tallies into the metrics registry
// afterwards, and when the context is cancelable the runner
// polls it every cancelPollBlocks dynamic blocks and aborts the walk once
// it is done, returning the wrapped context error. Without an observer v
// reaches the runner unwrapped, so a Background-derived or cancelable
// context costs the hot loop nothing but the runner's block count.
func RunCtx(ctx context.Context, bin *compiler.Binary, in program.Input, v Visitor) (err error) {
	o := obs.From(ctx)
	if o != nil {
		var span *obs.Span
		_, span = obs.StartSpan(ctx, "exec.run", bin.Name)
		defer span.End()
	}
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("exec %s: %w", bin.Name, cerr)
	}
	r, err := NewRunner(bin, in)
	if err != nil {
		return err
	}
	if ctx.Done() != nil {
		r.ctx = ctx
		// Visitors cannot return errors, so the runner aborts the walk
		// with a sentinel panic recovered here — cancellation never
		// unwinds past this frame.
		defer func() {
			if rec := recover(); rec != nil {
				stop, ok := rec.(execStop)
				if !ok {
					panic(rec)
				}
				err = fmt.Errorf("exec %s: %w", bin.Name, stop.err)
			}
		}()
	}
	if o == nil || o.Metrics == nil {
		return r.Run(v)
	}
	ic := NewInstructionCounter(bin)
	var markers markerTally
	err = r.Run(flatten(v, ic, &markers))
	o.Counter("exec.runs").Inc()
	o.Counter("exec.instructions").Add(ic.Instructions)
	o.Counter("exec.blocks").Add(ic.BlockExecs)
	o.Counter("exec.markers").Add(uint64(markers))
	return err
}

// cancelPollBlocks is how many dynamic blocks a runner with a cancelable
// context executes between polls of it. A power of two keeps the
// per-block cost to an increment and a mask.
const cancelPollBlocks = 4096

// execStop is the sentinel the runner panics with on cancellation.
type execStop struct{ err error }

// markerTally counts marker firings with no per-block work.
type markerTally uint64

// OnBlock implements Visitor.
func (t *markerTally) OnBlock(int) {}

// OnMarker implements Visitor.
func (t *markerTally) OnMarker(int) { *t++ }

func (r *Runner) runBody(b *compiler.LBody, v Visitor) {
	if b.EntryBlock >= 0 {
		r.emit(b.EntryBlock, v)
	}
	r.runStmts(b.Stmts, v)
}

func (r *Runner) runStmts(stmts []compiler.LStmt, v Visitor) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *compiler.LBlock:
			r.emit(s.Block, v)
		case *compiler.LLoop:
			r.runLoop(s, v)
		case *compiler.LCall:
			if s.Inlined != nil {
				r.runBody(s.Inlined, v)
				continue
			}
			r.emit(s.SiteBlock, v)
			callee := r.bin.Procs[s.Callee]
			if callee == nil {
				panic(fmt.Sprintf("exec: call to missing proc %d in %s", s.Callee, r.bin.Name))
			}
			r.runBody(callee, v)
		}
	}
}

func (r *Runner) runLoop(l *compiler.LLoop, v Visitor) {
	if l.SourceID >= len(r.hasTrip) || !r.hasTrip[l.SourceID] {
		panic(fmt.Sprintf("exec: loop %d has no trip spec", l.SourceID))
	}
	ordinal := r.ordinals[l.SourceID]
	r.ordinals[l.SourceID] = ordinal + 1
	trips := TripCount(r.trips[l.SourceID], r.seed, l.SourceID, ordinal)

	unroll := l.Unroll
	if unroll < 1 {
		unroll = 1
	}
	for pi := range l.Pieces {
		p := &l.Pieces[pi]
		r.emit(p.EntryBlock, v)
		for i := 0; i < trips; i++ {
			r.runStmts(p.Body, v)
			if (i+1)%unroll == 0 || i == trips-1 {
				r.emit(p.LatchBlock, v)
			}
		}
	}
}

func (r *Runner) emit(block int, v Visitor) {
	v.OnBlock(block)
	if m := r.markerOf[block]; m >= 0 {
		v.OnMarker(m)
	}
	r.blocks++
	if r.blocks%cancelPollBlocks == 0 && r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			panic(execStop{err})
		}
	}
}

// InstructionCounter is a Visitor that tallies dynamic instructions and
// block executions.
type InstructionCounter struct {
	bin *compiler.Binary
	// Instructions is the running dynamic instruction count.
	Instructions uint64
	// BlockExecs is the number of dynamic block executions.
	BlockExecs uint64
}

// NewInstructionCounter returns a counter for the binary.
func NewInstructionCounter(bin *compiler.Binary) *InstructionCounter {
	return &InstructionCounter{bin: bin}
}

// OnBlock implements Visitor.
func (c *InstructionCounter) OnBlock(block int) {
	c.Instructions += uint64(c.bin.Blocks[block].Instrs)
	c.BlockExecs++
}

// OnMarker implements Visitor.
func (c *InstructionCounter) OnMarker(int) {}

// MarkerCounter is a Visitor that tallies per-marker firing counts.
type MarkerCounter struct {
	// Counts[m] is the number of times marker m fired.
	Counts []uint64
}

// NewMarkerCounter returns a counter sized for the binary.
func NewMarkerCounter(bin *compiler.Binary) *MarkerCounter {
	return &MarkerCounter{Counts: make([]uint64, len(bin.Markers))}
}

// OnBlock implements Visitor.
func (c *MarkerCounter) OnBlock(int) {}

// OnMarker implements Visitor.
func (c *MarkerCounter) OnMarker(marker int) { c.Counts[marker]++ }
