package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// ServeBounds drives the continuous-batching scheduler over a steady batch
// of requests and checks that the PR 3 admission/step-cost models bound the
// traced actuals:
//
//   - the admission-time peak-arena estimate is an upper bound on the
//     arena's observed high-water mark (the model must never under-promise
//     memory, or admission control admits requests it cannot hold);
//   - the step-cost model's TPOT prediction, sampled while the batch is
//     busy, lands within TPOTFactor of the measured mean TPOT.
//
// The request load keeps the batch near full occupancy so the sampled
// prediction and the measured mean describe the same operating point.
func ServeBounds() (*Report, error) {
	const (
		seed     = 11
		slots    = 4
		requests = 12
		genLen   = 32
	)
	cfg := model.Tiny()
	eng, err := tinyEngine(seed, runtime.Policy{IntraOp: 1}, nil)
	if err != nil {
		return nil, err
	}
	scfg := serve.DefaultConfig(cfg.Vocab)
	scfg.Slots = slots
	scfg.QueueDepth = requests
	scfg.MaxNewTokens = genLen
	scfg.DefaultNewTokens = genLen
	sched, err := serve.New(eng, scfg)
	if err != nil {
		return nil, err
	}
	defer sched.Close()

	// Sample the TPOT prediction while the batch is running; the final
	// metrics snapshot is taken after drain, when occupancy (and thus the
	// prediction) has returned to zero.
	stop := make(chan struct{})
	var samples []time.Duration
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		// The tiny model drains the whole batch in a few milliseconds;
		// sample well below that so at least one busy-batch snapshot lands.
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if d := sched.Metrics().PredictedTPOT; d > 0 {
					samples = append(samples, d)
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	batch := make(workload.Trace, requests)
	for i := range batch {
		prompt := make([]int, 6)
		for j := range prompt {
			prompt[j] = rng.Intn(cfg.Vocab)
		}
		batch[i] = workload.Request{Session: -1, Kind: "steady-batch", Prompt: prompt, MaxNewTokens: genLen}
	}
	err = replayOn(sched, batch)
	close(stop)
	sampleWG.Wait()
	if err != nil {
		return nil, err
	}

	m2 := sched.Metrics()
	rep := &Report{}
	rep.add(Row{
		Suite: "serve-bounds", Case: "steady-batch", Check: "bound", Task: "peak-bytes",
		Predicted: float64(m2.PredictedPeakBytes), Measured: float64(m2.ArenaPeak),
		RelErr: relErr(float64(m2.PredictedPeakBytes), float64(m2.ArenaPeak)),
		Pass:   m2.PredictedPeakBytes >= m2.ArenaPeak,
		Note:   fmt.Sprintf("estimate ratio %.2f", m2.EstimateRatio),
	})

	measured := m2.Serve.TPOTMean
	if len(samples) == 0 || measured <= 0 {
		// An empty sample list depends on the ticker, so only that row is
		// timed; no measured mean after serving the batch is a bookkeeping
		// failure on any host.
		note := "no TPOT prediction sampled while the batch was busy"
		if measured <= 0 {
			note = "no TPOT mean measured after serving the batch"
		}
		rep.add(Row{
			Suite: "serve-bounds", Case: "steady-batch", Check: "bound", Task: "tpot",
			Pass: false, Note: note, Timed: measured > 0,
		})
		return rep, nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	predicted := samples[len(samples)/2]
	ratio := float64(predicted) / float64(measured)
	rep.add(Row{
		Suite: "serve-bounds", Case: "steady-batch", Check: "bound", Task: "tpot",
		Predicted: predicted.Seconds(), Measured: measured.Seconds(),
		RelErr: relErr(predicted.Seconds(), measured.Seconds()),
		Pass:   ratio >= 1/TPOTFactor && ratio <= TPOTFactor,
		Note:   fmt.Sprintf("median of %d samples, ratio %.2f", len(samples), ratio),
		Timed:  true,
	})
	return rep, nil
}

// tinyEngine builds an engine over the Tiny model seeded with seed.
func tinyEngine(seed int64, pol runtime.Policy, pool *threadpool.Pool) (*runtime.Engine, error) {
	m, err := model.NewModel(rand.New(rand.NewSource(seed)), model.Tiny())
	if err != nil {
		return nil, err
	}
	return runtime.NewEngine(m, pol, 1<<31, pool)
}

// replayOn replays t against sched and returns the first request error.
func replayOn(sched *serve.Scheduler, t workload.Trace) error {
	outs := workload.Replay(context.Background(), t, func(_ int, r workload.Request) (workload.Stream, error) {
		return sched.Submit(context.Background(), serve.Request{Prompt: r.Prompt, MaxNewTokens: r.MaxNewTokens})
	})
	for i, o := range outs {
		if o.SubmitErr != nil {
			return fmt.Errorf("conformance: submit %d: %w", i, o.SubmitErr)
		}
		if o.Err != nil {
			return fmt.Errorf("conformance: request %d failed: %w", i, o.Err)
		}
	}
	return nil
}
