package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxRequestBody bounds /generate request bodies; a prompt at MaxPromptLen
// encodes far below this.
const maxRequestBody = 1 << 20

// GenerateRequest is the /generate JSON wire format.
type GenerateRequest struct {
	Prompt       []int `json:"prompt"`
	MaxNewTokens int   `json:"max_new_tokens,omitempty"`
	// Stream selects SSE token streaming instead of a single JSON response.
	Stream bool `json:"stream,omitempty"`
	// Tenant bills the request under a configured tenant (fair-share quotas
	// and per-tenant /stats); empty maps to the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// GenerateResponse is the non-streaming /generate reply.
type GenerateResponse struct {
	Tokens []int `json:"tokens"`
}

// DecodeGenerateRequest parses and validates a /generate body against the
// serving limits, returning the normalized request and the streaming flag.
// It is the fuzzed admission surface: any malformed, oversize, or
// out-of-range input must return an error, never panic or produce a request
// the scheduler would refuse.
func DecodeGenerateRequest(body []byte, cfg Config) (Request, bool, error) {
	if len(body) > maxRequestBody {
		return Request{}, false, fmt.Errorf("serve: request body %d bytes exceeds %d", len(body), maxRequestBody)
	}
	var wire GenerateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return Request{}, false, fmt.Errorf("serve: malformed request: %w", err)
	}
	// Trailing garbage after the JSON object is malformed too.
	if dec.More() {
		return Request{}, false, fmt.Errorf("serve: trailing data after request object")
	}
	req, err := cfg.normalize(Request{Prompt: wire.Prompt, MaxNewTokens: wire.MaxNewTokens, Tenant: wire.Tenant})
	if err != nil {
		return Request{}, false, err
	}
	return req, wire.Stream, nil
}

// NewHandler exposes the scheduler over HTTP: POST /generate (JSON in,
// JSON or SSE out), GET /healthz, and GET /stats.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		state := s.Health()
		w.Header().Set("Content-Type", "application/json")
		if state == Shedding {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, map[string]string{"state": state.String()})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, statsPayload(s.Metrics()))
	})
	mux.HandleFunc("/generate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, stream, err := DecodeGenerateRequest(body, s.cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, err := s.Submit(r.Context(), req)
		var ovl *OverloadError
		switch {
		case errors.As(err, &ovl):
			WriteOverload(w, ovl)
			return
		case errors.Is(err, ErrQueueFull):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, ErrClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if stream {
			StreamSSE(w, st)
			return
		}
		tokens, err := st.Wait()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, GenerateResponse{Tokens: tokens})
	})
	return mux
}

// WriteOverload maps a structured admission rejection onto the wire: 503
// when the breaker is shedding and 429 for transient memory/latency
// pressure, both carrying a Retry-After header (whole seconds, rounded up,
// only when the drain predictor has an estimate); permanent rejections — a
// request that can never fit this deployment — return 422 with no
// Retry-After, so a well-behaved client stops resubmitting a request no
// amount of waiting can admit. The JSON body always carries the
// machine-readable cause. Exported so the cluster frontend answers routed
// rejections with byte-identical semantics.
func WriteOverload(w http.ResponseWriter, e *OverloadError) {
	status := http.StatusTooManyRequests
	switch {
	case e.Permanent:
		status = http.StatusUnprocessableEntity
	case e.Reason == "shedding":
		status = http.StatusServiceUnavailable
	}
	if !e.Permanent && e.RetryAfter > 0 {
		secs := int64((e.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, map[string]any{
		"error":          "overloaded",
		"reason":         e.Reason,
		"retry_after_ms": ms(e.RetryAfter),
		"state":          e.State.String(),
		"permanent":      e.Permanent,
	})
}

// StreamSSE delivers a request's tokens as server-sent events: one
// `data: {"step":N,"token":T}` event per token, then `event: done` carrying
// the terminal status. It takes any stream with a token channel and a
// terminal Wait (*Stream, or a cluster's routed stream), so the single-replica
// and cluster frontends share one wire framing.
func StreamSSE(w http.ResponseWriter, st interface {
	Tokens() <-chan int
	Wait() ([]int, error)
}) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	step := 0
	for tok := range st.Tokens() {
		fmt.Fprintf(w, "data: {\"step\":%d,\"token\":%d}\n\n", step, tok)
		step++
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, err := st.Wait()
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	fmt.Fprintf(w, "event: done\ndata: %q\n\n", status)
	if flusher != nil {
		flusher.Flush()
	}
}

// statsPayload flattens Metrics into the /stats JSON document.
func statsPayload(m Metrics) map[string]any {
	out := map[string]any{
		"uptime_sec":       m.Uptime.Seconds(),
		"queue_depth":      m.QueueDepth,
		"active_slots":     m.ActiveSlots,
		"total_slots":      m.TotalSlots,
		"tokens_generated": m.TokensGenerated,
		"tokens_per_sec":   m.TokensPerSec,
		"admitted":         m.Serve.Admitted,
		"completed":        m.Serve.Completed,
		"canceled":         m.Serve.Canceled,
		"rejected":         m.Serve.Rejected,
		"batch_steps":      m.Serve.BatchSteps,
		"avg_occupancy":    m.Serve.AvgOccupancy,
		"queue_peak":       m.Serve.QueuePeak,
		"ttft_p50_ms":      ms(m.Serve.TTFTP50),
		"ttft_p99_ms":      ms(m.Serve.TTFTP99),
		"ttft_mean_ms":     ms(m.Serve.TTFTMean),
		"tpot_mean_ms":     ms(m.Serve.TPOTMean),

		"rejected_429":         m.Serve.Rejected429,
		"spilled":              m.Serve.Spilled,
		"evicted":              m.Serve.Evicted,
		"breaker_state":        m.Breaker.String(),
		"breaker_transitions":  m.BreakerTransitions,
		"pressure_level":       m.PressureLevel,
		"predicted_peak_bytes": m.PredictedPeakBytes,
		"arena_capacity":       m.ArenaCapacity,
		"arena_peak":           m.ArenaPeak,
		"estimate_ratio":       m.EstimateRatio,
		"predicted_tpot_ms":    ms(m.PredictedTPOT),
		"predicted_drain_ms":   ms(m.PredictedDrain),
	}
	// Per-tenant accounting appears only when fair-share scheduling is on.
	if m.Tenants != nil {
		out["tenants"] = m.Tenants
	}
	// Prefix-cache fields appear only when the shared-prefix store is on.
	if m.PrefixCacheCapacity > 0 {
		out["prefix_hits"] = m.Serve.PrefixHits
		out["prefix_misses"] = m.Serve.PrefixMisses
		out["prefix_hit_rate"] = m.PrefixHitRate
		out["prefix_reused_tokens"] = m.Serve.PrefixReusedTokens
		out["prefix_inserts"] = m.Serve.PrefixInserts
		out["prefix_evictions"] = m.Serve.PrefixEvictions
		out["prefix_cache_bytes"] = m.PrefixCacheBytes
		out["prefix_cache_capacity"] = m.PrefixCacheCapacity
	}
	// Exec-policy hot-swap fields appear once any swap has been requested;
	// the adapt controller's own status block appears when one is attached.
	if m.SwapsApplied > 0 || m.SwapsRefused > 0 || m.Adapt != nil {
		out["exec_policy"] = map[string]any{
			"intra_op":        m.ExecPolicy.IntraOp,
			"inter_op":        m.ExecPolicy.InterOp,
			"prefetch":        m.ExecPolicy.Prefetch,
			"step_timeout_ms": ms(m.ExecPolicy.StepTimeout),
		}
		out["swaps_applied"] = m.SwapsApplied
		out["swaps_refused"] = m.SwapsRefused
	}
	if m.Adapt != nil {
		out["adapt"] = m.Adapt
	}
	// Span aggregates appear only while tracing is enabled, keyed by the
	// shared task vocabulary.
	if m.TraceTasks != nil {
		tasks := make(map[string]float64, len(m.TraceTasks))
		for name, d := range m.TraceTasks {
			tasks[name] = ms(d)
		}
		out["trace_tasks_ms"] = tasks
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
