package faults

import (
	"testing"
	"time"
)

func TestDriftScheduleFactorAt(t *testing.T) {
	ds := SustainedSlowdown(100*time.Millisecond, 2)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if f := ds.FactorAt(50 * time.Millisecond); f != 1 {
		t.Fatalf("pre-onset factor = %g, want 1", f)
	}
	if f := ds.FactorAt(100 * time.Millisecond); f != 2 {
		t.Fatalf("at-onset factor = %g, want 2", f)
	}
	if f := ds.FactorAt(time.Hour); f != 2 {
		t.Fatalf("sustained factor = %g, want 2", f)
	}

	// A rise, a higher step, and a fall back to nominal written as two
	// points at the same offset: the later one wins from that offset on.
	ms := time.Millisecond
	ds = DriftSchedule{{At: 10 * ms, Factor: 1.5}, {At: 30 * ms, Factor: 3}, {At: 60 * ms, Factor: 2.5}, {At: 60 * ms, Factor: 1}}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{10*ms - 1, 1}, {10 * ms, 1.5}, {10*ms + 1, 1.5},
		{30*ms - 1, 1.5}, {30 * ms, 3}, {30*ms + 1, 3},
		{60*ms - 1, 3}, {60 * ms, 1}, {60*ms + 1, 1},
		{time.Hour, 1},
	} {
		if f := ds.FactorAt(c.at); f != c.want {
			t.Errorf("factor at %v = %g, want %g", c.at, f, c.want)
		}
	}
}

func TestDriftScheduleValidate(t *testing.T) {
	bad := []DriftSchedule{
		{{At: 0, Factor: 0}},
		{{At: 0, Factor: -1}},
		{{At: -time.Second, Factor: 2}},
		{{At: time.Second, Factor: 2}, {At: 0, Factor: 1}},
	}
	for i, ds := range bad {
		if err := ds.Validate(); err == nil {
			t.Fatalf("schedule %d should fail validation", i)
		}
	}
}

func TestInjectorDrift(t *testing.T) {
	var nilInj *Injector
	if nilInj.DriftFactor() != 1 || nilInj.DriftDelay(time.Second) != 0 {
		t.Fatal("nil injector must report nominal drift")
	}
	if err := nilInj.SetDrift(SustainedSlowdown(0, 2)); err != nil {
		t.Fatal(err)
	}

	in := MustNew(1, nil)
	if in.DriftFactor() != 1 {
		t.Fatal("fresh injector must be nominal")
	}
	if err := in.SetDrift(DriftSchedule{{At: 0, Factor: -1}}); err == nil {
		t.Fatal("invalid schedule must be rejected")
	}
	if err := in.SetDrift(SustainedSlowdown(0, 2)); err != nil {
		t.Fatal(err)
	}
	if f := in.DriftFactor(); f != 2 {
		t.Fatalf("factor = %g, want 2", f)
	}
	if d := in.DriftDelay(10 * time.Millisecond); d != 10*time.Millisecond {
		t.Fatalf("2x drift delay for 10ms = %v, want 10ms", d)
	}
	// Drift ignores the fault window gate: the machine is slow whether or
	// not injected faults are firing.
	in.SetActive(false)
	if in.DriftFactor() != 2 {
		t.Fatal("drift must not be gated by SetActive")
	}
	// A sub-unity factor never produces a negative delay.
	if err := in.SetDrift(SustainedSlowdown(0, 0.5)); err != nil {
		t.Fatal(err)
	}
	if d := in.DriftDelay(10 * time.Millisecond); d != 0 {
		t.Fatalf("speed-up delay = %v, want 0", d)
	}
	// Clearing restores nominal.
	if err := in.SetDrift(nil); err != nil {
		t.Fatal(err)
	}
	if in.DriftFactor() != 1 {
		t.Fatal("nil schedule must clear drift")
	}
}
