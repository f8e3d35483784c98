package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	d := 24 * time.Second
	a, checkA := schedule(7, d, arrivalRate)
	b, checkB := schedule(7, d, arrivalRate)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(checkA, checkB) {
		t.Fatal("the same seed gave different schedules")
	}
	c, checkC := schedule(8, d, arrivalRate)
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(checkA, checkC) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	d := 24 * time.Second
	sched, check := schedule(0x5EED, d, arrivalRate)
	if want := int(arrivalRate * d.Seconds()); len(sched) != want {
		t.Fatalf("%d arrivals, want %d", len(sched), want)
	}
	if !sched[0].Fresh {
		t.Error("the first arrival resubmits a spec nothing submitted yet")
	}
	fresh := 0
	for i, a := range sched {
		if a.At < 0 || a.At >= d {
			t.Errorf("arrival %d at %v, outside [0, %v)", i, a.At, d)
		}
		if i > 0 && a.At < sched[i-1].At {
			t.Errorf("arrival %d at %v precedes arrival %d at %v", i, a.At, i-1, sched[i-1].At)
		}
		switch {
		case a.Fresh && a.Spec != fresh:
			t.Errorf("fresh arrival %d carries spec %d, want %d", i, a.Spec, fresh)
		case !a.Fresh && (a.Spec < 0 || a.Spec >= fresh):
			t.Errorf("arrival %d resubmits spec %d, but only %d were submitted", i, a.Spec, fresh)
		}
		if a.Fresh {
			fresh++
		}
	}
	if want := len(sched) / 3; fresh != want {
		t.Errorf("%d fresh arrivals, want %d", fresh, want)
	}
	if len(check) != checkSpecs {
		t.Fatalf("%d checked specs, want %d", len(check), checkSpecs)
	}
	for i, k := range check {
		if k < 0 || k >= fresh || (i > 0 && k <= check[i-1]) {
			t.Errorf("checked specs %v are not distinct submitted specs", check)
			break
		}
	}
}
