package serve

import (
	"context"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/runtime"
)

// TestRouteSnapshotPublishesPrefillFit: a live scheduler built from
// DefaultConfig fits its prefill cost model and publishes the fit to the
// cluster router. Eight sequential requests of distinct prompt lengths give
// the fit its eight samples; a ninth makes the loop publish after the eighth.
// Both assertions are sample-count based, so no timing bound is involved.
func TestRouteSnapshotPublishesPrefillFit(t *testing.T) {
	sched, err := New(tinyEngine(t, runtime.Policy{IntraOp: 1}, 1), DefaultConfig(model.Tiny().Vocab))
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	for i := 1; i <= 9; i++ {
		prompt := make([]int, 2*i)
		for j := range prompt {
			prompt[j] = (i + j) % model.Tiny().Vocab
		}
		st, err := sched.Submit(context.Background(), Request{Prompt: prompt, MaxNewTokens: 2})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := st.Wait(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	rs := sched.RouteSnapshot()
	if !rs.PrefillReady {
		t.Fatalf("PrefillReady false after 9 admissions: %+v", rs)
	}
	if got := rs.PredictPrefill(16); got <= 0 {
		t.Errorf("PredictPrefill(16) = %v, want > 0 (snapshot %+v)", got, rs)
	}
}

// TestNewRejectsInvalidConfigs: the construction checks of the overload
// protection — arena headroom, watermarks, streak and budgets — each make
// New fail.
func TestNewRejectsInvalidConfigs(t *testing.T) {
	vocab := model.Tiny().Vocab
	cases := []struct {
		name   string
		mutate func(*Config)
		eng    func(*testing.T) *runtime.Engine
		want   string
	}{
		{name: "no KV headroom", want: "no KV headroom",
			eng: func(t *testing.T) *runtime.Engine { return smallArenaEngine(t, 0, 1) }},
		{name: "low equals high", want: "watermarks",
			mutate: func(c *Config) { c.ArenaLowWater, c.ArenaHighWater = 0.8, 0.8 }},
		{name: "low above high", want: "watermarks",
			mutate: func(c *Config) { c.ArenaLowWater, c.ArenaHighWater = 0.9, 0.8 }},
		{name: "high above one", want: "watermarks",
			mutate: func(c *Config) { c.ArenaHighWater = 1.1 }},
		{name: "low zero", want: "watermarks",
			mutate: func(c *Config) { c.ArenaLowWater = 0 }},
		{name: "low negative", want: "watermarks",
			mutate: func(c *Config) { c.ArenaLowWater = -0.1 }},
		{name: "healthy streak zero", want: "healthy streak",
			mutate: func(c *Config) { c.HealthyStreak = 0 }},
		{name: "negative TPOT budget", want: "TPOT budget",
			mutate: func(c *Config) { c.TPOTBudget = -1 }},
		{name: "negative host KV budget", want: "host KV budget",
			mutate: func(c *Config) { c.HostKVBudget = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(vocab)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			var eng *runtime.Engine
			if tc.eng != nil {
				eng = tc.eng(t)
			} else {
				eng = tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
			}
			sched, err := New(eng, cfg)
			if err == nil {
				sched.Close()
				t.Fatal("New accepted the config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error %q does not mention %q", err, tc.want)
			}
		})
	}
}
