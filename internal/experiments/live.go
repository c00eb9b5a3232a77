package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// servingSeed is the model seed the live-serving experiments deploy, so
// their engines and solo references serve the identical model.
const servingSeed = 424242

// seededModel builds cfg's weights from seed.
func seededModel(seed int64, cfg model.Config) (*model.Model, error) {
	return model.NewModel(rand.New(rand.NewSource(seed)), cfg)
}

// randTokens draws n tokens uniformly from [0, vocab).
func randTokens(rng *rand.Rand, n, vocab int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = rng.Intn(vocab)
	}
	return toks
}

// seededEngine builds an engine over seededModel(seed, cfg).
func seededEngine(seed int64, cfg model.Config, pol runtime.Policy, capacity int64, pool *threadpool.Pool) (*runtime.Engine, error) {
	m, err := seededModel(seed, cfg)
	if err != nil {
		return nil, err
	}
	return runtime.NewEngine(m, pol, capacity, pool)
}

// soloReference regenerates one request alone: the exactness reference of
// every live-serving experiment. A raw request runs the runtime-free
// model.Model.Generate. A request the serving ladder stored quantized (kvq
// non-nil) runs one session slot that stores its KV the same way.
func soloReference(seed int64, cfg model.Config, prompt []int, budget int, kvq *quant.Config) ([]int, error) {
	m, err := seededModel(seed, cfg)
	if err != nil {
		return nil, err
	}
	if kvq == nil {
		out, err := m.Generate(nil, 1, [][]int{prompt}, budget)
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	eng, err := runtime.NewEngine(m, runtime.Policy{IntraOp: 1}, 1<<30, nil)
	if err != nil {
		return nil, err
	}
	sess, err := eng.NewSession(1)
	if err != nil {
		return nil, err
	}
	if err := sess.SetQuantizeNewSlots(true, *kvq); err != nil {
		return nil, err
	}
	ctx := context.Background()
	tok, err := sess.AdmitKV(ctx, 0, prompt, true)
	if err != nil {
		return nil, err
	}
	toks := []int{tok}
	for len(toks) < budget {
		step, err := sess.Step(ctx)
		if err != nil {
			return nil, err
		}
		toks = append(toks, step[0].Token)
	}
	sess.Retire(0)
	return toks, nil
}

// matchesSolo reports whether a request's served tokens equal its solo
// reference; the error is the reference's.
func matchesSolo(seed int64, cfg model.Config, prompt []int, budget int, kvq *quant.Config, got []int) (bool, error) {
	want, err := soloReference(seed, cfg, prompt, budget, kvq)
	if err != nil {
		return false, err
	}
	return slices.Equal(got, want), nil
}

// submitTo is the replay hook that submits each trace request to sched.
func submitTo(sched *serve.Scheduler) func(int, workload.Request) (workload.Stream, error) {
	return func(_ int, r workload.Request) (workload.Stream, error) {
		return sched.Submit(context.Background(), serve.Request{
			Prompt: r.Prompt, MaxNewTokens: r.MaxNewTokens, Tenant: r.Tenant,
		})
	}
}

// outcomeErr is a replayed request's submit error, else its stream's.
func outcomeErr(o workload.Outcome) error {
	if o.SubmitErr != nil {
		return o.SubmitErr
	}
	return o.Err
}

// replayErr returns the first request error of a replay.
func replayErr(outs []workload.Outcome) error {
	for i, o := range outs {
		if err := outcomeErr(o); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}
