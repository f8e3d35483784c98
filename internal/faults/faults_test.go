package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsFree(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context returned an injector")
	}
	for i := 0; i < 100; i++ {
		if err := Hit(ctx, "profile"); err != nil {
			t.Fatalf("nil injector injected: %v", err)
		}
	}
	var in *Injector
	if err := in.hit(ctx, "profile"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
}

func TestErrorFaultFiresOnExactInvocation(t *testing.T) {
	in := NewInjector(Rule{Stage: "profile", Index: 2, Kind: KindError})
	ctx := With(context.Background(), in)
	for i := 0; i < 5; i++ {
		err := Hit(ctx, "profile")
		if i == 2 {
			var ie *InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("invocation 2: got %v, want *InjectedError", err)
			}
			if ie.Stage != "profile" || ie.Index != 2 || ie.Kind != KindError {
				t.Fatalf("wrong attribution: %+v", ie)
			}
			continue
		}
		if err != nil {
			t.Fatalf("invocation %d injected: %v", i, err)
		}
	}
	// Other stages share nothing with the addressed one.
	if err := Hit(ctx, "mapping"); err != nil {
		t.Fatalf("unaddressed stage injected: %v", err)
	}
	if got := in.hits["profile"]; got != 5 {
		t.Fatalf("hits[profile] = %d, want 5", got)
	}
}

func TestPanicFaultPanicsWithInjectedError(t *testing.T) {
	in := NewInjector(Rule{Stage: "clustering.task", Index: 0, Kind: KindPanic})
	ctx := With(context.Background(), in)
	defer func() {
		r := recover()
		ie, ok := r.(*InjectedError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *InjectedError", r, r)
		}
		if ie.Kind != KindPanic || !Injected(ie) {
			t.Fatalf("wrong panic value: %+v", ie)
		}
	}()
	_ = Hit(ctx, "clustering.task")
	t.Fatal("panic fault did not panic")
}

func TestHangFaultWaitsForContext(t *testing.T) {
	in := NewInjector(Rule{Stage: "vli", Index: 0, Kind: KindHang})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := Hit(With(ctx, in), "vli")
	if !Injected(err) {
		t.Fatalf("hang returned %v, want injected error", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang error %v does not wrap the context error", err)
	}
}

func TestDelayFaultSucceedsAfterStall(t *testing.T) {
	in := NewInjector(Rule{Stage: "compile", Index: 0, Kind: KindDelay, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := Hit(With(context.Background(), in), "compile"); err != nil {
		t.Fatalf("delay fault errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("delay fault returned after %v, want >= 5ms", elapsed)
	}
}
