package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"xbsim/internal/compiler"
)

// cancelAfter cancels its context after n dynamic blocks — a test
// visitor that cancels mid-walk, deterministically.
type cancelAfter struct {
	cancel context.CancelFunc
	n      int
}

func (c *cancelAfter) OnBlock(int) {
	c.n--
	if c.n == 0 {
		c.cancel()
	}
}

func (c *cancelAfter) OnMarker(int) {}

// Cancelling mid-walk must abort the execution promptly with a wrapped
// context.Canceled instead of walking the remaining billions of blocks.
func TestRunCtxCancelMidWalk(t *testing.T) {
	prog := smallProgram(t, "gcc")
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	bin := bins[0]

	full := NewInstructionCounter(bin)
	if err := RunCtx(context.Background(), bin, refInput, full); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ic := NewInstructionCounter(bin)
	err = RunCtx(ctx, bin, refInput, Multi{&cancelAfter{cancel: cancel, n: 100}, ic})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx after mid-walk cancel = %v, want wrapped context.Canceled", err)
	}
	// Prompt abort: the runner polls every 4096 blocks, so the walk
	// must have stopped far short of the full run.
	if full.BlockExecs < 3*4096 {
		t.Skipf("program too small to observe an early abort (%d blocks)", full.BlockExecs)
	}
	if ic.BlockExecs > full.BlockExecs/2 {
		t.Fatalf("walk ran %d of %d blocks after cancellation", ic.BlockExecs, full.BlockExecs)
	}
}

// A context that is already done must fail before the walk starts.
func TestRunCtxPreCancelled(t *testing.T) {
	prog := smallProgram(t, "mcf")
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ic := NewInstructionCounter(bins[0])
	if err := RunCtx(ctx, bins[0], refInput, ic); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on cancelled context = %v, want wrapped context.Canceled", err)
	}
	if ic.BlockExecs != 0 {
		t.Fatalf("walk executed %d blocks on a cancelled context", ic.BlockExecs)
	}
}

// A cancelable-but-live context must not change the execution.
func TestRunCtxCancelableMatchesPlainRun(t *testing.T) {
	prog := smallProgram(t, "swim")
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	bin := bins[0]
	plain := NewInstructionCounter(bin)
	if err := RunCtx(context.Background(), bin, refInput, plain); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := NewInstructionCounter(bin)
	if err := RunCtx(ctx, bin, refInput, withCtx); err != nil {
		t.Fatal(err)
	}
	if plain.Instructions != withCtx.Instructions || plain.BlockExecs != withCtx.BlockExecs {
		t.Fatalf("cancelable run diverged: %d/%d vs %d/%d instructions/blocks",
			withCtx.Instructions, withCtx.BlockExecs, plain.Instructions, plain.BlockExecs)
	}
}

// cancelCounter counts blocks and cancels its context at the at-th.
type cancelCounter struct {
	cancel     context.CancelFunc
	at, blocks uint64
}

func (c *cancelCounter) OnBlock(int) {
	c.blocks++
	if c.blocks == c.at {
		c.cancel()
	}
}

func (c *cancelCounter) OnMarker(int) {}

// The runner polls the context itself: a walk cancelled at block n sees
// fewer than cancelPollBlocks more blocks, with the caller's visitor the
// only one in the walk.
func TestRunCtxCancelLandsWithinPoll(t *testing.T) {
	prog := smallProgram(t, "gcc")
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	bin := bins[0]
	full := NewInstructionCounter(bin)
	if err := RunCtx(context.Background(), bin, refInput, full); err != nil {
		t.Fatal(err)
	}
	if full.BlockExecs < 4*cancelPollBlocks {
		t.Fatalf("program too small to observe polling (%d blocks)", full.BlockExecs)
	}
	for _, at := range []uint64{1, 100, cancelPollBlocks - 1, cancelPollBlocks, cancelPollBlocks + 1, 3*cancelPollBlocks - 7} {
		ctx, cancel := context.WithCancel(context.Background())
		c := &cancelCounter{cancel: cancel, at: at}
		err := RunCtx(ctx, bin, refInput, c)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at block %d: RunCtx = %v, want wrapped context.Canceled", at, err)
		}
		if c.blocks < at || c.blocks-at >= cancelPollBlocks {
			t.Errorf("cancel at block %d: walk stopped after %d blocks, want fewer than %d more",
				at, c.blocks, cancelPollBlocks)
		}
	}
}

// callerProbe records the function that delivered its first block.
type callerProbe struct{ caller string }

func (p *callerProbe) OnBlock(int) {
	if p.caller == "" {
		pc, _, _, _ := runtime.Caller(1)
		p.caller = runtime.FuncForPC(pc).Name()
	}
}

func (p *callerProbe) OnMarker(int) {}

// Without an observer, RunCtx hands the caller's visitor to the runner
// unwrapped, cancelable context or not: its events come straight from
// Runner.emit, not through an exec.Multi.
func TestRunCtxVisitorUnwrapped(t *testing.T) {
	prog := smallProgram(t, "mcf")
	bins, err := compiler.CompileAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"background": context.Background(), "cancelable": cancelable} {
		p := &callerProbe{}
		if err := RunCtx(ctx, bins[0], refInput, p); err != nil {
			t.Fatal(err)
		}
		if want := "xbsim/internal/exec.(*Runner).emit"; p.caller != want {
			t.Errorf("%s context: first block delivered by %s, want %s", name, p.caller, want)
		}
	}
}
