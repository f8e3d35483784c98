package obs

import (
	"context"
	"strings"
	"testing"
)

func TestWithFrom(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("observer in empty context")
	}
	o := New()
	ctx := With(context.Background(), o)
	if From(ctx) != o {
		t.Fatal("observer not carried by context")
	}
	if got := With(context.Background(), nil); got != context.Background() {
		t.Fatal("With(nil) rewrapped the context")
	}
}

func TestNilObserverIsNoop(t *testing.T) {
	var o *Observer
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x").Observe(1)
	o.Emit(PipelineEvent{Kind: "progress", Benchmark: "gcc"})
}

func TestObserverChannelsMayBeNil(t *testing.T) {
	// An observer with only a registry: spans and progress are no-ops.
	o := &Observer{Metrics: NewRegistry()}
	ctx := With(context.Background(), o)
	_, sp := StartSpan(ctx, "stage.compile", "")
	if sp != nil {
		t.Fatal("span without an event log")
	}
	o.Emit(PipelineEvent{Kind: "progress", Benchmark: "gcc"})
	o.Counter("c").Inc()
	if o.Counter("c").Value() != 1 {
		t.Fatal("registry not live")
	}
}

func TestProgressFormats(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb)
	p.Report(PipelineEvent{Benchmark: "gcc", Stage: "done", Done: 3, Total: 5})
	p.Report(PipelineEvent{Benchmark: "gcc", Binary: "gcc.32u", Stage: "profile"})
	p.Report(PipelineEvent{Benchmark: "gcc", Stage: "mapping"})
	want := "xbsim: [3/5] gcc done\n" +
		"xbsim: gcc (gcc.32u) profile\n" +
		"xbsim: gcc mapping\n"
	if sb.String() != want {
		t.Fatalf("progress output:\n%s\nwant:\n%s", sb.String(), want)
	}
	var np *Progress
	np.Report(PipelineEvent{Benchmark: "gcc"}) // nil sink is a no-op
}
