package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
)

// FuzzAdmissionEstimate fuzzes the footprint estimator's arithmetic: no
// geometry or request shape — including adversarial near-overflow ones — may
// produce a negative, wrapped, or non-monotone estimate. For small shapes it
// additionally closes the loop against the real engine: an arena sized to
// exactly the estimate must serve the request without an arena-capacity
// failure, i.e. "the estimate said it fits" is a real guarantee, not a hint.
func FuzzAdmissionEstimate(f *testing.F) {
	f.Add(64, 4, int64(1<<20), int64(1<<17), 2, 1.2, 8, 32)
	f.Add(64, 4, int64(0), int64(131072), 1, 1.15, 4, 8)
	f.Add(1<<30, 8, int64(math.MaxInt64-10), int64(math.MaxInt64/2), 4, 1.5, math.MaxInt32, math.MaxInt32)
	f.Add(1, 1, int64(0), int64(0), 0, 1.0, 0, 0)
	f.Add(4096, 2, int64(1<<40), int64(1<<33), 2, 2.0, 2048, 2048)
	f.Add(64, 4, int64(-5), int64(131072), 1, 0.5, -3, -9)

	f.Fuzz(func(t *testing.T, hidden, bpe int, base, layerB int64, buffers int, slack float64, plen, ntok int) {
		a := perfmodel.AdmissionModel{
			HiddenDim:     hidden,
			BytesPerElem:  bpe,
			ResidentBase:  base,
			LayerBytes:    layerB,
			WeightBuffers: buffers,
			Slack:         slack,
		}
		if a.Validate() != nil {
			t.Skip()
		}
		kv := a.SlotKVBytes(plen, ntok)
		if kv < 0 {
			t.Fatalf("SlotKVBytes(%d, %d) = %d < 0", plen, ntok, kv)
		}
		if ntok >= 0 && ntok < math.MaxInt {
			if kv2 := a.SlotKVBytes(plen, ntok+1); kv2 < kv {
				t.Fatalf("SlotKVBytes not monotone: %d tokens -> %d, %d tokens -> %d", ntok, kv, ntok+1, kv2)
			}
		}
		peak := a.PeakBytes(kv)
		if peak < 0 {
			t.Fatalf("PeakBytes(%d) = %d < 0", kv, peak)
		}
		if peak < kv || peak < base {
			t.Fatalf("PeakBytes(%d) = %d wrapped below its terms (base %d)", kv, peak, base)
		}
		if s := a.ScaledKV(kv); s < kv {
			t.Fatalf("ScaledKV(%d) = %d shrank with slack %g >= 1", kv, s, slack)
		}

		// Engine-backed leg, bounded to cheap shapes: size the arena to the
		// estimate and run the admitted request to completion.
		if plen < 1 || plen > 12 || ntok < 1 || ntok > 12 {
			return
		}
		m, err := model.NewModel(rand.New(rand.NewSource(modelSeed)), model.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		probe, err := runtime.NewEngine(m, runtime.Policy{IntraOp: 1}, 1<<30, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(model.Tiny().Vocab)
		real := newAdmissionModel(probe)
		estimate := real.PeakBytes(real.SlotKVBytes(plen, ntok))

		eng, err := runtime.NewEngine(m, runtime.Policy{IntraOp: 1}, estimate, nil)
		if err != nil {
			t.Fatalf("engine rejected arena == estimate %d: %v", estimate, err)
		}
		sched, err := New(eng, cfg)
		if err != nil {
			t.Fatalf("scheduler rejected arena == estimate %d: %v", estimate, err)
		}
		defer sched.Close()
		prompt := make([]int, plen)
		for i := range prompt {
			prompt[i] = (i*7 + plen) % cfg.Vocab
		}
		st, err := sched.Submit(context.Background(), Request{Prompt: prompt, MaxNewTokens: ntok})
		if err != nil {
			t.Fatalf("estimate-sized arena refused admission (plen %d, ntok %d, estimate %d): %v", plen, ntok, estimate, err)
		}
		if _, err := st.Wait(); err != nil {
			t.Fatalf("admitted request failed inside its estimate (plen %d, ntok %d): %v", plen, ntok, err)
		}
		if peak := eng.ArenaPeak(); peak > estimate {
			t.Fatalf("actual arena peak %d exceeded the admission estimate %d", peak, estimate)
		}
	})
}
