// Package faults is a deterministic fault injector for exercising the
// pipeline's failure paths. An Injector carries a schedule of rules —
// each addressed to one invocation of one named stage hook — through a
// context.Context; instrumented code calls Hit(ctx, stage) at stage
// boundaries and the injector decides whether that invocation fails,
// panics, stalls, or hangs.
//
// The design mirrors internal/obs: everything is nil-safe, so a context
// without an injector pays one context lookup and nothing else — the
// production path has no build tags, no globals, and no cost beyond that
// lookup. Schedules are explicit and deterministic: a rule names one
// invocation of one hook, so a test knows exactly which stage fails.
//
// Nothing retries an injected fault: a faulted stage fails its
// benchmark (or, at serve.crash, stops the queue as if the process had
// died), which is what the tests of fault isolation and crash recovery
// pin.
package faults

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"xbsim/internal/obs"
)

// Kind is the failure mode a rule injects.
type Kind int

const (
	// KindError makes the hook return an *InjectedError.
	KindError Kind = iota
	// KindPanic makes the hook panic with a *InjectedError value; the
	// worker pool's panic isolation converts it into a *pool.PanicError
	// attributed to the panicking task.
	KindPanic
	// KindDelay makes the hook sleep for the rule's Delay, then succeed.
	KindDelay
	// KindHang makes the hook block until the context is done — the way
	// to exercise cancellation and job deadlines.
	KindHang
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindHang:
		return "hang"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule injects one fault: the Index-th invocation (0-based) of the named
// stage hook fires with the given kind. A rule fires at most once.
type Rule struct {
	// Stage names the hook: a pipeline stage ("compile", "profile",
	// "mapping", "vli", "evaluate", "clustering"), a pool-fanned unit
	// inside one ("profile.task", "evaluate.task", "clustering.task"),
	// "evaluate.walk", "sampler.stratify", "sampler.allocate", or the
	// queue's "serve.crash".
	Stage string
	// Index is the invocation of that hook the fault fires on.
	Index int
	// Kind is the failure mode.
	Kind Kind
	// Delay is the stall duration for KindDelay rules.
	Delay time.Duration
}

// InjectedError is the typed error every injected fault surfaces as.
// Error-kind rules return it, panic-kind rules panic with it, and
// hang-kind rules wrap the context error in it — so one errors.As check
// identifies "this failure was injected" across all kinds, including
// through a pool.PanicError and errors.Join.
type InjectedError struct {
	// Stage and Index address the invocation that fired.
	Stage string
	Index int
	// Kind is the injected failure mode.
	Kind Kind
	// err is the underlying cause for hang faults (the context error).
	err error
}

// Error implements error.
func (e *InjectedError) Error() string {
	msg := fmt.Sprintf("injected %s fault at %s invocation %d", e.Kind, e.Stage, e.Index)
	if e.err != nil {
		msg += ": " + e.err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause (hang faults wrap ctx.Err()).
func (e *InjectedError) Unwrap() error { return e.err }

// Injected reports whether an injected fault is anywhere in err's tree.
func Injected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// Injector holds a fault schedule and the per-stage invocation counters
// that address it. A nil *Injector is valid and injects nothing.
type Injector struct {
	mu sync.Mutex
	// rules maps "stage\x00index" to the scheduled rule.
	rules map[string]Rule
	// hits counts invocations per stage hook.
	hits map[string]int
}

// NewInjector builds an injector from a schedule. Later rules on the
// same (stage, index) slot override earlier ones.
func NewInjector(rules ...Rule) *Injector {
	in := &Injector{rules: make(map[string]Rule, len(rules)), hits: map[string]int{}}
	for _, r := range rules {
		in.rules[slotKey(r.Stage, r.Index)] = r
	}
	return in
}

func slotKey(stage string, index int) string {
	return stage + "\x00" + strconv.Itoa(index)
}

// ctxKey keys the Injector in a context.
type ctxKey struct{}

// With returns a context carrying the injector. A nil injector returns
// ctx unchanged.
func With(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// From returns the context's injector, or nil when none is attached.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Hit marks one invocation of the named stage hook on the context's
// injector. Without an injector it costs one context lookup and returns
// nil. With one, it advances the stage's invocation counter and fires
// the matching rule, if any: error faults return a *InjectedError, panic
// faults panic with one, delay faults stall and then succeed, and hang
// faults block until ctx is done and return its error wrapped in a
// *InjectedError.
func Hit(ctx context.Context, stage string) error {
	return From(ctx).hit(ctx, stage)
}

func (in *Injector) hit(ctx context.Context, stage string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	idx := in.hits[stage]
	in.hits[stage] = idx + 1
	rule, ok := in.rules[slotKey(stage, idx)]
	in.mu.Unlock()
	if !ok {
		return nil
	}
	// Fired faults are observable per stage hook and as a
	// flight-recorder event.
	o := obs.From(ctx)
	o.Counter("pipeline.faults_injected").Inc()
	o.Counter("pipeline.faults_injected." + stage).Inc()
	o.Emit(obs.PipelineEvent{
		Kind: "fault", Stage: stage,
		Detail: fmt.Sprintf("%s fault at invocation %d", rule.Kind, idx),
	})
	ie := &InjectedError{Stage: stage, Index: idx, Kind: rule.Kind}
	switch rule.Kind {
	case KindPanic:
		panic(ie)
	case KindDelay:
		t := time.NewTimer(rule.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			ie.err = ctx.Err()
			return ie
		}
	case KindHang:
		<-ctx.Done()
		ie.err = ctx.Err()
		return ie
	}
	return ie
}
