package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ClusterRow is one scenario of the cluster robustness bench.
type ClusterRow struct {
	Scenario     string
	Mode         string // "live" (in-process replicas) or "sim" (fleet DES)
	Hedge        string // "on", "off", or "-" when not the variable under test
	Offered      int
	Completed    int
	Failed       int
	Availability float64
	Failovers    int64
	Hedges       int64
	HedgeWins    int64
	// TTFT percentiles in seconds over completed requests (0 when the
	// scenario does not measure latency).
	TTFTp50 float64
	TTFTp99 float64
}

// ClusterResult is the cluster bench: a live three-replica run with one
// replica killed and restarted mid-trace (the availability gate), the fleet
// simulator's hedging A/B under a silently slow replica (the tail-latency
// gate), and a 128-replica chaos run showing the same policy at a scale the
// live harness cannot reach.
type ClusterResult struct {
	Rows []ClusterRow
	clusterLive
}

// clusterLive is the live run's correctness record.
type clusterLive struct {
	// Indefinite counts live requests that ended with an error that is
	// neither a completion nor a structured rejection.
	Indefinite int
	// ExactChecked counts live routed outputs re-verified against a
	// dedicated solo replay, ExactMismatches how many differed.
	ExactChecked, ExactMismatches int
}

const clusterSeed = 424242

// clusterLiveKill replays n Poisson requests at three live replicas, kills
// the replica that request n/3 routed to, and restarts it at request 2n/3.
// Every request must end with a definite status; availability is the
// completed fraction. A sample of completed outputs is verified token-exact
// against solo replays.
func clusterLiveKill(n int) (ClusterRow, clusterLive, error) {
	// Hedging stays off here so failover — not a hedge promotion — is the
	// rescue path under test; the hedging A/B has its own simulated rows.
	row := ClusterRow{Scenario: "kill-1-of-3", Mode: "live", Hedge: "off", Offered: n}
	var live clusterLive

	vocab := model.Tiny().Vocab
	cfg := serve.DefaultConfig(vocab)
	cfg.Slots = 2
	cfg.QueueDepth = 2 * n // the kill, not queue pressure, is the variable
	cfg.MaxNewTokens = 16
	cfg.DefaultNewTokens = 6

	reps := make([]*cluster.Replica, 3)
	scheds := make([]*serve.Scheduler, 3)
	for i := range reps {
		eng, err := seededEngine(clusterSeed, model.Tiny(), runtime.Policy{IntraOp: 1}, 1<<30, nil)
		if err != nil {
			return row, live, err
		}
		s, err := serve.New(eng, cfg)
		if err != nil {
			return row, live, err
		}
		scheds[i] = s
		reps[i] = cluster.NewReplica(fmt.Sprintf("r%d", i), s, nil)
	}
	defer func() {
		for _, s := range scheds {
			s.Close()
		}
	}()
	c, err := cluster.New(reps, cfg, cluster.Options{})
	if err != nil {
		return row, live, err
	}

	rng := rand.New(rand.NewSource(clusterSeed + 1))
	trace := make(workload.Trace, n)
	var at time.Duration
	for i := range trace {
		prompt := randTokens(rng, 4+rng.Intn(10), vocab)
		trace[i] = workload.Request{At: at, Session: -1, Prompt: prompt, MaxNewTokens: 6 + rng.Intn(8), Kind: "cluster"}
		at += time.Duration(rng.ExpFloat64() * float64(3*time.Millisecond))
	}
	victim := 0
	outs := workload.Replay(context.Background(), trace, func(i int, r workload.Request) (workload.Stream, error) {
		if i == 2*n/3 {
			c.Restart(victim)
		}
		st, err := c.Submit(context.Background(), serve.Request{Prompt: r.Prompt, MaxNewTokens: r.MaxNewTokens})
		if i == n/3 {
			// The kill: take down whichever replica this request routed to
			// while it is still in flight — the failover path, not
			// scheduling luck, is under test.
			if err == nil && len(st.Replicas()) > 0 {
				victim = st.Replicas()[0]
			}
			c.Kill(victim)
		}
		if err != nil {
			return nil, err
		}
		return st, nil
	})
	c.Wait()

	var ttfts []float64
	rejected := 0
	for i, o := range outs {
		if err := outcomeErr(o); err != nil {
			var ovl *serve.OverloadError
			if errors.As(err, &ovl) || errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrClosed) {
				rejected++
			} else {
				live.Indefinite++
			}
			continue
		}
		row.Completed++
		ttfts = append(ttfts, o.TokenTimes[0].Sub(o.Submitted).Seconds())
		// Verify a spread sample token-exact against solo replays (replays
		// build a fresh engine each, so bound the count).
		if live.ExactChecked < 6 && i%(n/6+1) == 0 {
			ok, err := matchesSolo(clusterSeed, model.Tiny(), trace[i].Prompt, trace[i].MaxNewTokens, nil, o.Tokens)
			if err != nil {
				return row, live, err
			}
			if !ok {
				live.ExactMismatches++
			}
			live.ExactChecked++
		}
	}
	row.Failed = n - row.Completed - rejected
	row.Availability = float64(row.Completed) / float64(n)
	m := c.Metrics()
	row.Failovers, row.Hedges, row.HedgeWins = m.Failovers, m.Hedges, m.HedgeWins
	sort.Float64s(ttfts)
	row.TTFTp50 = clusterPercentile(ttfts, 0.50)
	row.TTFTp99 = clusterPercentile(ttfts, 0.99)
	return row, live, nil
}

// clusterFleetBase is the simulated counterpart of the live deployment:
// three 4-slot replicas under Poisson load with fitted per-token costs.
func clusterFleetBase(requests int) sim.FleetConfig {
	return sim.FleetConfig{
		Replicas:         3,
		Slots:            4,
		Requests:         requests,
		ArrivalRate:      400,
		PromptLen:        64,
		GenLen:           32,
		PrefillTokenCost: 40e-6,
		TokenCost:        300e-6,
		Seed:             1,
	}
}

func clusterFleetRow(scenario, hedge string, cfg sim.FleetConfig) (ClusterRow, error) {
	res, err := sim.RunFleet(cfg)
	if err != nil {
		return ClusterRow{}, fmt.Errorf("experiments: cluster fleet %s: %w", scenario, err)
	}
	return ClusterRow{
		Scenario:     scenario,
		Mode:         "sim",
		Hedge:        hedge,
		Offered:      res.Offered,
		Completed:    res.Completed,
		Failed:       res.Failed,
		Availability: res.Availability,
		Failovers:    int64(res.Failovers),
		Hedges:       int64(res.Hedges),
		HedgeWins:    int64(res.HedgeWins),
		TTFTp50:      res.TTFTp50,
		TTFTp99:      res.TTFTp99,
	}, nil
}

// ClusterBench runs the cluster robustness suite: 60 live requests and
// 2000 requests per three-replica fleet run, 20000 at fleet scale. Smoke
// runs a fifth of each.
func ClusterBench(s Scale) (*ClusterResult, error) {
	n, fleet := 60, 2000
	if s == Smoke {
		n, fleet = 12, 400
	}
	out := &ClusterResult{}

	live, rec, err := clusterLiveKill(n)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, live)
	out.clusterLive = rec

	// Fleet kill: the same scenario at simulated scale and determinism.
	kill := clusterFleetBase(fleet)
	kill.Down = []sim.FleetWindow{{Replica: 0, Start: 0.5, Duration: 2.0}}
	row, err := clusterFleetRow("kill-1-of-3", "off", kill)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// Hedging A/B: one replica serves 20x slow but its health still reads Up
	// (the undetected-degradation regime), so score-based routing keeps
	// feeding it. Hedged second attempts are the only defense.
	slow := clusterFleetBase(fleet)
	slow.Slow = []sim.FleetWindow{{Replica: 0, Start: 0.2, Duration: 3.0, Factor: 20, Silent: true}}
	plain, err := clusterFleetRow("silent-20x-slow", "off", slow)
	if err != nil {
		return nil, err
	}
	slow.Hedge = true
	hedged, err := clusterFleetRow("silent-20x-slow", "on", slow)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, plain, hedged)

	// Fleet scale: 128 replicas, two kills and a slowdown, 10x the requests.
	big := clusterFleetBase(10 * fleet)
	big.Replicas = 128
	big.ArrivalRate = 20000
	big.PrefixGroups = 64
	big.Hedge = true
	big.Down = []sim.FleetWindow{
		{Replica: 3, Start: 0.2, Duration: 0.5},
		{Replica: 77, Start: 0.4, Duration: 0.3},
	}
	big.Slow = []sim.FleetWindow{{Replica: 9, Start: 0.1, Duration: 0.8, Factor: 10}}
	row, err = clusterFleetRow("chaos-128x4", "on", big)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)
	return out, nil
}

// Report renders the scenario table. It gates live availability under the
// kill at >= 99%, that every live request ended with a definite status and
// that sampled live outputs match their solo replays, and that hedging
// improves the simulated p99 TTFT under a silently slow replica.
func (r *ClusterResult) Report() *Report {
	t := stats.NewTable("scenario", "mode", "hedge", "offered", "completed", "failed", "avail", "failovers", "hedges(wins)", "p50 ttft", "p99 ttft")
	for _, c := range r.Rows {
		t.AddRowf("%s\t%s\t%s\t%d\t%d\t%d\t%.2f%%\t%d\t%d(%d)\t%s\t%s",
			c.Scenario, c.Mode, c.Hedge, c.Offered, c.Completed, c.Failed,
			c.Availability*100, c.Failovers, c.Hedges, c.HedgeWins,
			clusterDur(c.TTFTp50), clusterDur(c.TTFTp99))
	}
	live, plain, hedged := r.Rows[0], r.Rows[2], r.Rows[3]
	return &Report{
		Title: "Cluster robustness: availability and tail latency under replica faults",
		Table: t,
		Notes: []string{
			fmt.Sprintf("live = 3 in-process replicas (%d routed outputs re-verified against solo replays)", r.ExactChecked),
			"sim  = fleet discrete-event run of the same routing policy",
		},
		Gates: []Gate{
			atLeast("live availability under one-of-three kill", WallClock, live.Availability, 0.99),
			atMost("live requests without a definite status", Exact, float64(r.Indefinite), 0),
			atMost("sampled live outputs differing from their solo replay", Exact, float64(r.ExactMismatches), 0),
			{Name: "hedged / plain sim p99 TTFT under a silent 20x-slow replica", Kind: Model,
				Value: hedged.TTFTp99 / plain.TTFTp99, Bound: "< 1", Pass: hedged.TTFTp99 < plain.TTFTp99},
		},
	}
}

func clusterPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func clusterDur(s float64) string {
	return time.Duration(float64(time.Second) * s).Round(10 * time.Microsecond).String()
}
