package runtime

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// Stats accumulates the engine's I/O and task accounting — the functional
// counterpart of the perfmodel's traffic and task-time predictions.
type Stats struct {
	mu sync.Mutex

	// Interconnect bytes by direction and tensor kind.
	WeightUpBytes int64
	KVUpBytes     int64
	KVDownBytes   int64
	ActUpBytes    int64
	ActDownBytes  int64

	// Quantization operation counts.
	QuantizeOps   int64
	DequantizeOps int64

	// Wall-clock time per task kind (summed across the run).
	TaskTime map[string]time.Duration

	// TokensGenerated counts decoded tokens across all sequences.
	TokensGenerated int64
	// WallTime is the end-to-end generation time.
	WallTime time.Duration

	// Fault-tolerance accounting.
	//
	// Retries counts retried operations by name (e.g. "load_weight",
	// "decode_step"); Degradations records each rung of the degradation
	// ladder taken, in order; Checkpoints counts snapshots captured.
	Retries       map[string]int64
	Degradations  []string
	Checkpoints   int64
	FaultsCleared int64 // transient faults absorbed by a successful retry

	// arenaFreeErrors counts Arena.Free underflows absorbed by the engine's
	// non-strict free path (rollback races that double-freed a staged buffer).
	arenaFreeErrors int64

	// Serving-layer accounting, recorded by internal/serve's scheduler.
	serve serveAccum
}

// defaultServeSampleCap bounds the latency sample rings when the serving
// layer does not configure a capacity; past it the oldest samples are
// overwritten, so quantiles describe the recent window.
const defaultServeSampleCap = 4096

// serveAccum is the scheduler-side counters behind ServeSummary, guarded by
// the owning Stats' mutex.
type serveAccum struct {
	admitted, completed, canceled, rejected int64
	batchSteps, occupancySum                int64
	queuePeak                               int
	ttft, tpot                              ring
	sampleCap                               int // 0 = defaultServeSampleCap

	// Overload-protection counters (admission controller + pressure ladder).
	rejected429  int64
	spilled      int64
	evicted      int64
	breakerFlips int64

	// Shared-prefix KV cache counters (admissions seeded from the store,
	// cold admissions while the store was attached, tokens skipped by
	// seeding, and block inserts/evictions).
	prefixHits      int64
	prefixMisses    int64
	prefixReused    int64
	prefixInserts   int64
	prefixEvictions int64
}

// ring is a fixed-capacity overwrite buffer of duration samples. Its
// capacity is latched from the owning serveAccum's configured cap (or the
// default) at the first sample.
type ring struct {
	cap   int
	buf   []time.Duration
	count int64
}

func (r *ring) add(d time.Duration, cap int) {
	if r.buf == nil {
		if cap <= 0 {
			cap = defaultServeSampleCap
		}
		r.cap = cap
		r.buf = make([]time.Duration, 0, r.cap)
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.count%int64(r.cap)] = d
	}
	r.count++
}

// ServeSummary is a point-in-time snapshot of the serving-layer metrics:
// admission outcomes, batch occupancy, and TTFT/TPOT latency quantiles over
// the recent sample window.
type ServeSummary struct {
	Admitted  int64
	Completed int64
	Canceled  int64
	Rejected  int64

	BatchSteps   int64
	AvgOccupancy float64 // mean active slots per decode step
	QueuePeak    int

	TTFTMean, TTFTP50, TTFTP99 time.Duration // submit -> first token
	TPOTMean                   time.Duration // mean inter-token gap

	// Overload protection: admission rejections (HTTP 429), KV slots spilled
	// to host, slots evicted for recompute-on-resume, and circuit-breaker
	// state transitions.
	Rejected429        int64
	Spilled            int64
	Evicted            int64
	BreakerTransitions int64

	// Shared-prefix KV cache: admissions seeded from the store vs. cold
	// admissions with the store attached, prompt tokens whose prefill was
	// skipped by seeding, and prefix blocks inserted/evicted.
	PrefixHits         int64
	PrefixMisses       int64
	PrefixReusedTokens int64
	PrefixInserts      int64
	PrefixEvictions    int64
}

// RecordPrefixHit counts one admission seeded from the prefix cache and the
// prompt tokens the seeding skipped.
func (s *Stats) RecordPrefixHit(reusedTokens int) {
	s.mu.Lock()
	s.serve.prefixHits++
	s.serve.prefixReused += int64(reusedTokens)
	s.mu.Unlock()
}

// RecordPrefixMiss counts one cold admission while the prefix cache was
// attached.
func (s *Stats) RecordPrefixMiss() {
	s.mu.Lock()
	s.serve.prefixMisses++
	s.mu.Unlock()
}

// RecordPrefixInserts counts blocks inserted into the prefix cache.
func (s *Stats) RecordPrefixInserts(n int64) {
	s.mu.Lock()
	s.serve.prefixInserts += n
	s.mu.Unlock()
}

// RecordPrefixEvictions counts blocks evicted from the prefix cache (LRU
// reclaim on insert or the pressure ladder's drop-unreferenced rung).
func (s *Stats) RecordPrefixEvictions(n int64) {
	s.mu.Lock()
	s.serve.prefixEvictions += n
	s.mu.Unlock()
}

// SetServeSampleCap sizes the TTFT/TPOT latency sample rings (before their
// first sample; rings that already latched a capacity keep it so samples are
// never dropped mid-run). Zero or negative restores the default.
func (s *Stats) SetServeSampleCap(n int) {
	s.mu.Lock()
	if n < 0 {
		n = 0
	}
	s.serve.sampleCap = n
	s.mu.Unlock()
}

// RecordAdmission counts one admitted request and its time-to-first-token.
func (s *Stats) RecordAdmission(ttft time.Duration) {
	s.mu.Lock()
	s.serve.admitted++
	s.serve.ttft.add(ttft, s.serve.sampleCap)
	s.mu.Unlock()
}

// RecordCompletion counts one finished request; tpot is its mean inter-token
// gap (zero when the request produced a single token).
func (s *Stats) RecordCompletion(tpot time.Duration) {
	s.mu.Lock()
	s.serve.completed++
	if tpot > 0 {
		s.serve.tpot.add(tpot, s.serve.sampleCap)
	}
	s.mu.Unlock()
}

// RecordCancellation counts a request that left before completing (context
// cancellation or deadline expiry).
func (s *Stats) RecordCancellation() {
	s.mu.Lock()
	s.serve.canceled++
	s.mu.Unlock()
}

// RecordRejection counts a request refused at admission (full queue or
// failed validation).
func (s *Stats) RecordRejection() {
	s.mu.Lock()
	s.serve.rejected++
	s.mu.Unlock()
}

// RecordOverloadRejection counts a request refused by the admission
// controller (HTTP 429 with Retry-After).
func (s *Stats) RecordOverloadRejection() {
	s.mu.Lock()
	s.serve.rejected429++
	s.mu.Unlock()
}

// RecordSpill counts one slot's KV cache spilled from the GPU staging path to
// host memory by the pressure ladder.
func (s *Stats) RecordSpill() {
	s.mu.Lock()
	s.serve.spilled++
	s.mu.Unlock()
}

// RecordEviction counts one slot evicted under memory pressure for
// recompute-on-resume.
func (s *Stats) RecordEviction() {
	s.mu.Lock()
	s.serve.evicted++
	s.mu.Unlock()
}

// RecordBreakerTransition counts one circuit-breaker state change.
func (s *Stats) RecordBreakerTransition() {
	s.mu.Lock()
	s.serve.breakerFlips++
	s.mu.Unlock()
}

// RecordBatchStep counts one continuous-batching decode step with the given
// slot occupancy and observed queue depth.
func (s *Stats) RecordBatchStep(occupancy, queueDepth int) {
	s.mu.Lock()
	s.serve.batchSteps++
	s.serve.occupancySum += int64(occupancy)
	if queueDepth > s.serve.queuePeak {
		s.serve.queuePeak = queueDepth
	}
	s.mu.Unlock()
}

// ServeSummary snapshots the serving metrics.
func (s *Stats) ServeSummary() ServeSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServeSummary{
		Admitted:           s.serve.admitted,
		Completed:          s.serve.completed,
		Canceled:           s.serve.canceled,
		Rejected:           s.serve.rejected,
		BatchSteps:         s.serve.batchSteps,
		QueuePeak:          s.serve.queuePeak,
		Rejected429:        s.serve.rejected429,
		Spilled:            s.serve.spilled,
		Evicted:            s.serve.evicted,
		BreakerTransitions: s.serve.breakerFlips,
		PrefixHits:         s.serve.prefixHits,
		PrefixMisses:       s.serve.prefixMisses,
		PrefixReusedTokens: s.serve.prefixReused,
		PrefixInserts:      s.serve.prefixInserts,
		PrefixEvictions:    s.serve.prefixEvictions,
	}
	if s.serve.batchSteps > 0 {
		out.AvgOccupancy = float64(s.serve.occupancySum) / float64(s.serve.batchSteps)
	}
	out.TTFTMean, out.TTFTP50, out.TTFTP99 = stats.Quantiles(s.serve.ttft.buf)
	out.TPOTMean, _, _ = stats.Quantiles(s.serve.tpot.buf)
	return out
}

func newStats() *Stats {
	return &Stats{TaskTime: map[string]time.Duration{}, Retries: map[string]int64{}}
}

// NewStats returns an empty standalone accumulator. Engines create their own;
// harnesses and tests use this to exercise the recording paths directly.
func NewStats() *Stats { return newStats() }

func (s *Stats) addBytes(field *int64, n int64) {
	s.mu.Lock()
	*field += n
	s.mu.Unlock()
}

func (s *Stats) addTask(name string, d time.Duration) {
	s.mu.Lock()
	s.TaskTime[name] += d
	s.mu.Unlock()
}

func (s *Stats) addTokens(n int) { s.addBytes(&s.TokensGenerated, int64(n)) }

func (s *Stats) addOps(quant, dequant int64) {
	s.mu.Lock()
	s.QuantizeOps += quant
	s.DequantizeOps += dequant
	s.mu.Unlock()
}

func (s *Stats) addRetry(op string) {
	s.mu.Lock()
	s.Retries[op]++
	s.mu.Unlock()
}

func (s *Stats) addDegradation(desc string) {
	s.mu.Lock()
	s.Degradations = append(s.Degradations, desc)
	s.mu.Unlock()
}

func (s *Stats) addCheckpoint() {
	s.mu.Lock()
	s.Checkpoints++
	s.mu.Unlock()
}

func (s *Stats) addCleared(n int64) {
	s.mu.Lock()
	s.FaultsCleared += n
	s.mu.Unlock()
}

func (s *Stats) addArenaFreeError() {
	s.mu.Lock()
	s.arenaFreeErrors++
	s.mu.Unlock()
}

// ArenaFreeErrorCount returns how many arena free underflows the engine has
// absorbed (each one is an accounting discrepancy worth alerting on).
func (s *Stats) ArenaFreeErrorCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arenaFreeErrors
}

// TokensGeneratedCount returns the decoded-token counter under the stats
// lock — the race-safe read concurrent observers (the serving layer's
// metrics endpoint) need while generation is in flight.
func (s *Stats) TokensGeneratedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.TokensGenerated
}

// TotalRetries sums the per-operation retry counts.
func (s *Stats) TotalRetries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, c := range s.Retries {
		n += c
	}
	return n
}

// TotalUpBytes returns all CPU->GPU traffic.
func (s *Stats) TotalUpBytes() int64 { return s.WeightUpBytes + s.KVUpBytes + s.ActUpBytes }

// TotalDownBytes returns all GPU->CPU traffic.
func (s *Stats) TotalDownBytes() int64 { return s.KVDownBytes + s.ActDownBytes }

// Throughput returns generated tokens per wall-clock second.
func (s *Stats) Throughput() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return float64(s.TokensGenerated) / s.WallTime.Seconds()
}

// String summarizes the run.
func (s *Stats) String() string {
	return fmt.Sprintf("tokens=%d wall=%v up=%.1fMB (w %.1f, kv %.1f) down=%.1fMB quant=%d dequant=%d",
		s.TokensGenerated, s.WallTime.Round(time.Millisecond),
		float64(s.TotalUpBytes())/1e6, float64(s.WeightUpBytes)/1e6, float64(s.KVUpBytes)/1e6,
		float64(s.TotalDownBytes())/1e6, s.QuantizeOps, s.DequantizeOps)
}
