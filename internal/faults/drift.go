package faults

import (
	"fmt"
	"time"
)

// DriftPoint is one knot of a drift schedule: from At (relative to the
// schedule's epoch) onward, compute at drift-capable sites runs Factor times
// slower, until the next point takes over. Factor 1 is nominal speed; the
// schedule before the first point is nominal.
type DriftPoint struct {
	At     time.Duration
	Factor float64
}

// DriftSchedule is a deterministic piecewise-constant slowdown profile — the
// injector-side model of thermal throttling and co-tenant interference. It
// is a pure value; the Injector anchors it to an epoch via SetDrift.
type DriftSchedule []DriftPoint

// Validate reports malformed schedules: factors must be positive (a factor
// below 1 models the machine speeding back up) and points must not move
// backwards in time.
func (ds DriftSchedule) Validate() error {
	last := time.Duration(-1)
	for i, p := range ds {
		if p.Factor <= 0 {
			return fmt.Errorf("faults: drift point %d has non-positive factor %g", i, p.Factor)
		}
		if p.At < 0 {
			return fmt.Errorf("faults: drift point %d at negative offset %v", i, p.At)
		}
		if p.At < last {
			return fmt.Errorf("faults: drift point %d at %v precedes point %d", i, p.At, i-1)
		}
		last = p.At
	}
	return nil
}

// FactorAt evaluates the schedule at offset t from its epoch.
func (ds DriftSchedule) FactorAt(t time.Duration) float64 {
	f := 1.0
	for _, p := range ds {
		if p.At > t {
			break
		}
		f = p.Factor
	}
	return f
}

// SustainedSlowdown is the simplest drift scenario: nominal until start,
// then a flat factor forever — a thermal cap or a co-tenant that moved in
// and stayed.
func SustainedSlowdown(start time.Duration, factor float64) DriftSchedule {
	return DriftSchedule{{At: start, Factor: factor}}
}

// SetDrift installs a drift schedule anchored at time.Now. The schedule is
// evaluated by DriftDelay on every probe; a nil/empty schedule clears drift.
// Unlike the probabilistic sites, drift is time-driven and deterministic:
// the same schedule produces the same factor sequence regardless of probe
// interleaving.
func (in *Injector) SetDrift(ds DriftSchedule) error {
	if in == nil {
		return nil
	}
	if err := ds.Validate(); err != nil {
		return err
	}
	cp := append(DriftSchedule(nil), ds...)
	in.mu.Lock()
	in.drift = cp
	in.driftEpoch = time.Now()
	in.mu.Unlock()
	return nil
}

// DriftFactor returns the schedule's current slowdown factor (1 when no
// schedule is installed). The window gate (SetActive) does not apply: drift
// models the machine itself changing, not an injected fault event.
func (in *Injector) DriftFactor() float64 {
	if in == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.drift) == 0 {
		return 1
	}
	return in.drift.FactorAt(time.Since(in.driftEpoch))
}

// DriftDelay converts an operation that took `elapsed` at nominal speed into
// the extra stall the current drift factor implies: elapsed*(factor-1),
// i.e. the operation behaves as if the machine ran `factor` times slower.
// Zero when no schedule is installed or the factor is <= 1 (a speed-up
// cannot un-spend time already spent).
func (in *Injector) DriftDelay(elapsed time.Duration) time.Duration {
	if in == nil || elapsed <= 0 {
		return 0
	}
	f := in.DriftFactor()
	if f <= 1 {
		return 0
	}
	return time.Duration(float64(elapsed) * (f - 1))
}
