package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// fqPending builds a queue-only pending (no stream or context needed for
// fairQueue unit tests).
func fqPending(tenant string) *pending {
	return &pending{tenant: tenant, req: Request{Prompt: []int{1}, MaxNewTokens: 1}}
}

func fairCfg(tenants map[string]TenantConfig) Config {
	cfg := DefaultConfig(128)
	cfg.Tenants = tenants
	return cfg
}

func alwaysEligible(string) bool { return true }

func TestFairQueueSingleTenantFIFO(t *testing.T) {
	cfg := DefaultConfig(128)
	cfg.QueueDepth = 2
	q := newFairQueue(cfg)
	a, b, c := fqPending(""), fqPending(""), fqPending("")
	if err := q.push(a); err != nil {
		t.Fatal(err)
	}
	if err := q.push(b); err != nil {
		t.Fatal(err)
	}
	if err := q.push(c); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull push: %v", err)
	}
	if got := q.next(alwaysEligible); got != a {
		t.Fatal("FIFO order violated")
	}
	q.take(a)
	if got := q.next(alwaysEligible); got != b {
		t.Fatal("FIFO order violated after take")
	}
	// The resume lane preempts the FIFO and ignores capacity.
	r := fqPending("")
	q.pushFront(r)
	if err := q.push(c); err != nil {
		t.Fatalf("push after take: %v", err)
	}
	if got := q.next(alwaysEligible); got != r {
		t.Fatal("resume lane not dispatched first")
	}
	q.take(r)
	q.take(b)
	q.take(c)
	if q.len() != 0 {
		t.Fatalf("leftover %d", q.len())
	}
}

func TestFairQueueWeightedRoundRobin(t *testing.T) {
	q := newFairQueue(fairCfg(map[string]TenantConfig{
		"a": {Slots: 4, Weight: 3},
		"b": {Slots: 4, Weight: 1},
	}))
	for i := 0; i < 9; i++ {
		if err := q.push(fqPending("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := q.push(fqPending("b")); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for {
		p := q.next(alwaysEligible)
		if p == nil {
			break
		}
		q.take(p)
		order = append(order, p.tenant)
	}
	// Weight 3:1 → each full round is aaab.
	if got := strings.Join(order, ""); got != "aaabaaabaaab" {
		t.Fatalf("dispatch order %q, want aaabaaabaaab", got)
	}
}

func TestFairQueueEligibilitySkips(t *testing.T) {
	q := newFairQueue(fairCfg(map[string]TenantConfig{
		"a": {Slots: 1, Weight: 1},
		"b": {Slots: 1, Weight: 1},
	}))
	pa, pb := fqPending("a"), fqPending("b")
	if err := q.push(pa); err != nil {
		t.Fatal(err)
	}
	if err := q.push(pb); err != nil {
		t.Fatal(err)
	}
	blocked := map[string]bool{"a": true}
	elig := func(name string) bool { return !blocked[name] }
	if got := q.next(elig); got != pb {
		t.Fatal("ineligible tenant not skipped")
	}
	q.take(pb)
	blocked["b"] = true
	if got := q.next(elig); got != nil {
		t.Fatal("dispatch from fully ineligible set")
	}
	blocked = map[string]bool{}
	if got := q.next(elig); got != pa {
		t.Fatal("re-eligible tenant not dispatched")
	}
}

func TestFairQueueUnknownTenantRejected(t *testing.T) {
	q := newFairQueue(fairCfg(map[string]TenantConfig{"a": {Slots: 1}}))
	if err := q.push(fqPending("ghost")); err == nil {
		t.Fatal("push of unresolved tenant must fail")
	}
	// The reserved default lane exists even without an explicit entry.
	if err := q.push(fqPending(DefaultTenant)); err != nil {
		t.Fatal(err)
	}
}

// FuzzFairShareQueue drives arbitrary push/dispatch/complete interleavings
// over three tenants with fuzzed weights, quotas, and queue depths, checking
// the queueing invariants: per-tenant depth never exceeds its capacity, push
// fails exactly when the owning queue is full, dispatches never violate the
// active-slot quota the eligibility callback encodes, nothing is lost or
// duplicated, and — over the final drain with everything eligible — no
// continuously-backlogged tenant is starved past two full credit rounds.
func FuzzFairShareQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 0x41}, uint8(3), uint8(1), uint8(2), uint8(1), uint8(2), uint8(3))
	f.Add([]byte{0x10, 0x21, 0x32, 0x03, 0x14, 0x25}, uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, wA, wB, wC, qA, qB, qC uint8) {
		names := []string{"a", "b", "c"}
		weights := map[string]int{"a": 1 + int(wA%8), "b": 1 + int(wB%8), "c": 1 + int(wC%8)}
		quotas := map[string]int{"a": 1 + int(qA%4), "b": 1 + int(qB%4), "c": 1 + int(qC%4)}
		const depth = 8
		tenants := map[string]TenantConfig{}
		for _, n := range names {
			tenants[n] = TenantConfig{Slots: quotas[n], Weight: weights[n], QueueDepth: depth}
		}
		cfg := fairCfg(tenants)
		cfg.QueueDepth = depth
		q := newFairQueue(cfg)

		active := map[string]int{}
		var inflight []*pending
		pushed, dispatched, failed := 0, 0, 0
		eligible := func(name string) bool { return active[name] < quotas[name] }

		dispatch := func() {
			p := q.next(eligible)
			if p == nil {
				return
			}
			if active[p.tenant] >= quotas[p.tenant] {
				t.Fatalf("dispatched %s past quota %d", p.tenant, quotas[p.tenant])
			}
			before := q.len()
			q.take(p)
			if q.len() != before-1 {
				t.Fatalf("take changed len by %d", before-q.len())
			}
			active[p.tenant]++
			inflight = append(inflight, p)
			dispatched++
		}

		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push to tenant op>>2 % 3
				name := names[int(op>>2)%3]
				before := q.depth(name)
				err := q.push(fqPending(name))
				if err != nil {
					if before != depth {
						t.Fatalf("push to %s failed at depth %d (cap %d)", name, before, depth)
					}
					failed++
				} else {
					if before >= depth {
						t.Fatalf("push to %s succeeded at depth %d (cap %d)", name, before, depth)
					}
					pushed++
				}
			case 2:
				dispatch()
			case 3: // complete the oldest in-flight request
				if len(inflight) > 0 {
					done := inflight[0]
					inflight = inflight[1:]
					active[done.tenant]--
				}
			}
			total := 0
			for _, n := range names {
				d := q.depth(n)
				if d > depth {
					t.Fatalf("tenant %s depth %d exceeds cap %d", n, d, depth)
				}
				total += d
			}
			total += q.depth(DefaultTenant)
			if total != q.len() {
				t.Fatalf("depth sum %d != len %d", total, q.len())
			}
		}

		// Final drain, everything eligible: every queued request must come
		// out exactly once, and any tenant continuously backlogged through a
		// window of two full credit rounds must be dispatched in that window.
		for _, p := range inflight {
			active[p.tenant]--
			_ = p
		}
		for k := range active {
			active[k] = 0
		}
		sumWeights := 0
		for _, n := range names {
			sumWeights += weights[n]
		}
		window := 2 * sumWeights
		var seq []string
		backlogged := map[string][]bool{}
		for {
			p := q.next(alwaysEligible)
			if p == nil {
				break
			}
			for _, n := range names {
				backlogged[n] = append(backlogged[n], q.depth(n) > 0)
			}
			q.take(p)
			seq = append(seq, p.tenant)
			if len(seq) > pushed+dispatched+1000 {
				t.Fatal("drain does not terminate")
			}
		}
		if q.len() != 0 {
			t.Fatalf("drain left %d queued", q.len())
		}
		if dispatched+len(seq) != pushed {
			t.Fatalf("pushed %d but dispatched %d + drained %d", pushed, dispatched, len(seq))
		}
		for _, n := range names {
			for start := 0; start+window <= len(seq); start++ {
				covered := true
				hit := false
				for i := start; i < start+window; i++ {
					if !backlogged[n][i] {
						covered = false
						break
					}
					if seq[i] == n {
						hit = true
					}
				}
				if covered && !hit {
					t.Fatalf("tenant %s (weight %d) starved through window %d..%d of %v",
						n, weights[n], start, start+window, seq)
				}
			}
		}
	})
}

// tenantScheduler builds a scheduler on a tiny engine with the given tenant
// map and returns it with its vocab.
func tenantScheduler(t *testing.T, tenants map[string]TenantConfig, mutate func(*Config)) *Scheduler {
	t.Helper()
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.Tenants = tenants
	if mutate != nil {
		mutate(&cfg)
	}
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestTenantSuspendedPermanent(t *testing.T) {
	sched := tenantScheduler(t, map[string]TenantConfig{
		"open":   {Slots: 2},
		"frozen": {Slots: 0},
	}, nil)
	defer sched.Close()
	_, err := sched.Submit(context.Background(), Request{Prompt: []int{1, 2}, MaxNewTokens: 2, Tenant: "frozen"})
	var ovl *OverloadError
	if !errors.As(err, &ovl) || !ovl.Permanent || ovl.Reason != "tenant-suspended" {
		t.Fatalf("suspended tenant submit: %v", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("suspension must match ErrOverloaded")
	}
	// The suspension maps to HTTP 422 with no Retry-After.
	rec := httptest.NewRecorder()
	WriteOverload(rec, ovl)
	if rec.Code != 422 {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("permanent rejection must not carry Retry-After")
	}
	// A healthy tenant is unaffected.
	st, err := sched.Submit(context.Background(), Request{Prompt: []int{1, 2}, MaxNewTokens: 2, Tenant: "open"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantCountersConserveFailedAdmissions: a request whose admission
// fails — a monolithic prefill or a chunked one — still lands in exactly one
// of its tenant's terminal counters, so Submitted = Completed + Canceled +
// Rejected + Queued + Active keeps holding. Every weight transfer fails, so
// both prefills outlast the step's retries and degradation ladder.
func TestTenantCountersConserveFailedAdmissions(t *testing.T) {
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 1)
	eng.SetFaultInjector(faults.MustNew(3, map[faults.Site]faults.Rule{faults.WeightTransfer: {Prob: 1}}))
	if err := eng.SetRetryConfig(runtime.RetryConfig{MaxAttempts: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 2
	cfg.ChunkTokens = 4
	cfg.Tenants = map[string]TenantConfig{"pro": {Slots: 2}}
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	short, chunked := []int{1, 2, 3}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, prompt := range [][]int{short, chunked} {
		st, err := sched.Submit(context.Background(), Request{Prompt: prompt, MaxNewTokens: 2, Tenant: "pro"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Wait(); err == nil {
			t.Fatalf("a %d-token prompt was admitted while every weight transfer fails", len(prompt))
		}
	}
	// Close drains the loop, so every counter update has landed.
	sched.Close()
	tm := sched.Metrics().Tenants["pro"]
	if tm.Submitted != 2 || tm.Rejected != 2 {
		t.Errorf("tenant counters %+v: want 2 submitted, 2 rejected", tm)
	}
	if got := tm.Completed + tm.Canceled + tm.Rejected + int64(tm.Queued+tm.Active); got != tm.Submitted {
		t.Errorf("tenant counters %+v account for %d of %d submissions", tm, got, tm.Submitted)
	}
}

func TestTenantQuotaBoundsActiveSlots(t *testing.T) {
	sched := tenantScheduler(t, map[string]TenantConfig{
		"small": {Slots: 1, Weight: 1},
	}, func(c *Config) { c.Slots = 3 })
	defer sched.Close()
	const n = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violation error
	var vmu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := sched.Metrics()
			if tm, ok := m.Tenants["small"]; ok && tm.Active > 1 {
				vmu.Lock()
				violation = errors.New("tenant small exceeded its 1-slot quota")
				vmu.Unlock()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := sched.Submit(context.Background(), Request{
				Prompt: []int{1 + i%8, 2, 3}, MaxNewTokens: 6, Tenant: "small"})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := st.Wait(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	vmu.Lock()
	defer vmu.Unlock()
	if violation != nil {
		t.Fatal(violation)
	}
	m := sched.Metrics()
	tm := m.Tenants["small"]
	if tm.Submitted != n || tm.Admitted != n || tm.Completed != n {
		t.Fatalf("tenant counters %+v, want %d submitted/admitted/completed", tm, n)
	}
}

func TestUnknownTenantBillsDefault(t *testing.T) {
	sched := tenantScheduler(t, map[string]TenantConfig{
		"vip": {Slots: 2, Weight: 2},
	}, nil)
	defer sched.Close()
	st, err := sched.Submit(context.Background(), Request{Prompt: []int{3, 4}, MaxNewTokens: 2, Tenant: "nobody"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	m := sched.Metrics()
	tm, ok := m.Tenants[DefaultTenant]
	if !ok || tm.Completed != 1 {
		t.Fatalf("unknown tenant not billed to %q: %+v", DefaultTenant, m.Tenants)
	}
}

func TestTenantStatsPayload(t *testing.T) {
	sched := tenantScheduler(t, map[string]TenantConfig{
		"pro": {Slots: 2, Weight: 3},
	}, nil)
	defer sched.Close()
	st, err := sched.Submit(context.Background(), Request{Prompt: []int{5, 6}, MaxNewTokens: 2, Tenant: "pro"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	payload := statsPayload(sched.Metrics())
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Tenants map[string]TenantMetrics `json:"tenants"`
		Drain   *float64                 `json:"predicted_drain_ms"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Drain == nil {
		t.Fatal("/stats missing predicted_drain_ms")
	}
	if decoded.Tenants["pro"].Completed != 1 {
		t.Fatalf("/stats tenants payload %+v", decoded.Tenants)
	}
}

// TestFairShareNoStarvationUnderFlood: a batch tenant floods the queue ahead
// of an interactive tenant; with fair-share scheduling the interactive
// request still completes while batch work remains queued.
func TestFairShareNoStarvationUnderFlood(t *testing.T) {
	sched := tenantScheduler(t, map[string]TenantConfig{
		"batch": {Slots: 1, Weight: 1, QueueDepth: 64},
		"inter": {Slots: 1, Weight: 1},
	}, func(c *Config) { c.Slots = 2 })
	defer sched.Close()
	const flood = 24
	streams := make([]*Stream, 0, flood)
	for i := 0; i < flood; i++ {
		st, err := sched.Submit(context.Background(), Request{
			Prompt: []int{1 + i%7, 2}, MaxNewTokens: 8, Tenant: "batch"})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	st, err := sched.Submit(context.Background(), Request{Prompt: []int{9, 9}, MaxNewTokens: 2, Tenant: "inter"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("interactive request starved behind the batch flood")
	}
	m := sched.Metrics()
	if m.Tenants["batch"].Completed == flood {
		t.Fatal("interactive request finished only after the whole flood drained")
	}
	for _, bs := range streams {
		if _, err := bs.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialMultiTenantChat replays a generated multi-tenant chat
// workload (shared-prefix sessions, fair-share quotas, prefix cache on)
// through the scheduler and checks every request's tokens against a solo
// Generate replay — the PR 2 differential contract extended to the workload
// generators.
func TestDifferentialMultiTenantChat(t *testing.T) {
	trace := workload.AssignTenants(
		workload.Chat(workload.Spec{Seed: 77, N: 36, Vocab: model.Tiny().Vocab}),
		7, "free", "pro")
	eng := tinyEngine(t, runtime.Policy{IntraOp: 1}, 2)
	cfg := DefaultConfig(model.Tiny().Vocab)
	cfg.Slots = 3
	cfg.Tenants = map[string]TenantConfig{
		"free": {Slots: 1, Weight: 1},
		"pro":  {Slots: 2, Weight: 3},
	}
	cfg.PrefixCacheBytes = 1 << 20
	sched, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]int, len(trace))
	errs := make([]error, len(trace))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range trace {
		wg.Add(1)
		go func(i int, r workload.Request) {
			defer wg.Done()
			if d := time.Until(start.Add(r.At)); d > 0 {
				time.Sleep(d)
			}
			st, err := sched.Submit(context.Background(), Request{
				Prompt: r.Prompt, MaxNewTokens: r.MaxNewTokens, Tenant: r.Tenant})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = st.Wait()
		}(i, r)
	}
	wg.Wait()
	sched.Close()
	for i, r := range trace {
		if errs[i] != nil {
			t.Fatalf("request %d (%s sess=%d turn=%d): %v", i, r.Tenant, r.Session, r.Turn, errs[i])
		}
		want := soloReference(t, r.Prompt, r.MaxNewTokens, cfg.EOS)
		assertTokensEqual(t, "chat request "+itoa(i), outs[i], want)
	}
	m := sched.Metrics()
	if m.Tenants["free"].Completed+m.Tenants["pro"].Completed != int64(len(trace)) {
		t.Fatalf("tenant completion counters %+v do not cover the trace", m.Tenants)
	}
	if m.Serve.PrefixHits == 0 {
		t.Fatal("chat workload produced no prefix-cache hits")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestServeSampleCapConfigurable is the ring-capacity regression test: with
// the default cap a long cell overwrites its earliest samples; configuring
// LatencySampleCap preserves them. Exercised at the Stats layer with
// deterministic samples.
func TestServeSampleCapConfigurable(t *testing.T) {
	small := runtime.NewStats()
	small.SetServeSampleCap(8)
	large := runtime.NewStats()
	large.SetServeSampleCap(64)
	// 32 admissions: a huge early TTFT followed by tiny ones. A ring that
	// drops early samples forgets the spike; a large-enough one keeps it.
	feed := func(st *runtime.Stats) {
		st.RecordAdmission(10 * time.Second)
		for i := 0; i < 31; i++ {
			st.RecordAdmission(time.Millisecond)
		}
	}
	feed(small)
	feed(large)
	if p99 := small.ServeSummary().TTFTP99; p99 >= 10*time.Second {
		t.Fatalf("8-sample ring kept the overwritten spike: p99 %v", p99)
	}
	if p99 := large.ServeSummary().TTFTP99; p99 < 10*time.Second {
		t.Fatalf("64-sample ring lost the early spike: p99 %v", p99)
	}
	// The cap latches at the first sample: resizing afterwards must not
	// corrupt or drop what is already recorded.
	large.SetServeSampleCap(4)
	large.RecordAdmission(time.Millisecond)
	if got := large.ServeSummary().Admitted; got != 33 {
		t.Fatalf("admitted %d after post-latch resize, want 33", got)
	}
}

func TestParseTenantSpec(t *testing.T) {
	tcs, err := ParseTenantSpec("free=1, pro=2/3, batch=1/1/16, off=0")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]TenantConfig{
		"free":  {Slots: 1},
		"pro":   {Slots: 2, Weight: 3},
		"batch": {Slots: 1, Weight: 1, QueueDepth: 16},
		"off":   {Slots: 0},
	}
	if len(tcs) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(tcs), len(want))
	}
	for name, w := range want {
		if got := tcs[name]; got != w {
			t.Errorf("tenant %s = %+v, want %+v", name, got, w)
		}
	}
	for _, bad := range []string{
		"", "   ", "free", "=1", "free=1/2/3/4", "free=x", "free=-1",
		"free=1/0", "free=1,free=2",
	} {
		if _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted, want error", bad)
		}
	}
}
