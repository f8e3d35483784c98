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
	if in.Injected() != 0 {
		t.Fatal("nil injector reported state")
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
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
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

func TestRandomPlanIsDeterministicAndCollisionFree(t *testing.T) {
	stages := []string{"compile", "profile", "profile.task", "mapping", "clustering"}
	a := RandomPlan("chaos/1/0", stages, 12)
	b := RandomPlan("chaos/1/0", stages, 12)
	if len(a) != 12 {
		t.Fatalf("plan has %d rules, want 12", len(a))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at %d: %v vs %v", i, a[i], b[i])
		}
		key := slotKey(a[i].Stage, a[i].Index)
		if seen[key] {
			t.Fatalf("duplicate slot %v", a[i])
		}
		seen[key] = true
	}
	if c := RandomPlan("chaos/1/1", stages, 12); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different keys produced the same plan prefix")
	}
}

func TestParseRulesRoundTrip(t *testing.T) {
	rules, err := ParseRules("profile@0:error, clustering.task@2:panic,vli@1:delay:25ms,evaluate@0:hang")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Stage: "profile", Index: 0, Kind: KindError},
		{Stage: "clustering.task", Index: 2, Kind: KindPanic},
		{Stage: "vli", Index: 1, Kind: KindDelay, Delay: 25 * time.Millisecond},
		{Stage: "evaluate", Index: 0, Kind: KindHang},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %v, want %v", i, rules[i], want[i])
		}
		back, err := ParseRules(want[i].String())
		if err != nil || len(back) != 1 || back[0] != want[i] {
			t.Fatalf("rule %v does not round-trip through String(): %v %v", want[i], back, err)
		}
	}
	for _, bad := range []string{"profile", "@0:error", "profile@x:error", "profile@0:boom", "profile@0:error:5ms", "profile@-1:error"} {
		if _, err := ParseRules(bad); err == nil {
			t.Fatalf("ParseRules(%q) succeeded, want error", bad)
		}
	}
}
