package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/serve"
)

// maxRequestBody mirrors the single-replica server's body bound.
const maxRequestBody = 1 << 20

// replicaMetrics is the optional backend surface the /stats endpoint uses;
// the live scheduler backend provides it, fakes need not.
type replicaMetrics interface{ Metrics() serve.Metrics }

// NewHandler exposes the cluster over HTTP with the same wire contract as a
// single replica: POST /generate (JSON or SSE), GET /healthz, GET /stats —
// plus per-replica health and the router counters. Overload rejections keep
// their single-replica semantics end-to-end: transient pressure is 429 with
// the max Retry-After across tried replicas, a shedding fleet (or one with
// no routable replica) is 503, and a permanent never-fits verdict is 422
// exactly once, never re-dispatched.
func NewHandler(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		states := c.States()
		up := 0
		names := make([]string, len(states))
		for i, st := range states {
			if st != DownReplica {
				up++
			}
			names[i] = st.String()
		}
		w.Header().Set("Content-Type", "application/json")
		if up == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, map[string]any{
			"replicas": len(states),
			"routable": up,
			"states":   names,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, statsPayload(c))
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
		req, stream, err := serve.DecodeGenerateRequest(body, c.cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, err := c.Submit(r.Context(), req)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		if stream {
			serve.StreamSSE(w, st)
			return
		}
		tokens, err := st.Wait()
		var ovl *serve.OverloadError
		switch {
		case errors.As(err, &ovl) && len(tokens) == 0:
			// The request died on its replica and every failover target
			// rejected: the client gets the structured overload answer it
			// would have gotten had the router known sooner.
			writeClusterOverload(w, ovl)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, serve.GenerateResponse{Tokens: tokens})
	})
	return mux
}

// writeSubmitError maps a routed submit rejection onto the wire.
func writeSubmitError(w http.ResponseWriter, err error) {
	var ovl *serve.OverloadError
	switch {
	case errors.As(err, &ovl):
		writeClusterOverload(w, ovl)
	case errors.Is(err, serve.ErrQueueFull):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, serve.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// writeClusterOverload extends the single-replica overload mapping with the
// cluster-wide no-routable-replica case, which answers 503 like a shedding
// breaker (the whole fleet is refusing work, not one member).
func writeClusterOverload(w http.ResponseWriter, e *serve.OverloadError) {
	if e.Reason == ReasonNoReplica {
		cp := *e
		cp.Reason = "shedding"
		serve.WriteOverload(w, &cp)
		return
	}
	serve.WriteOverload(w, e)
}

// statsPayload assembles the cluster /stats document: router counters plus
// per-replica state and (when available) each replica's serving metrics.
func statsPayload(c *Cluster) map[string]any {
	m := c.Metrics()
	states := make([]string, len(m.States))
	for i, st := range m.States {
		states[i] = st.String()
	}
	out := map[string]any{
		"replicas":           m.Replicas,
		"replica_states":     states,
		"submitted":          m.Submitted,
		"completed":          m.Completed,
		"failed":             m.Failed,
		"hedges":             m.Hedges,
		"hedge_wins":         m.HedgeWins,
		"failovers":          m.Failovers,
		"rejected_transient": m.RejectedTransient,
		"rejected_permanent": m.RejectedPermanent,
	}
	perReplica := make([]map[string]any, 0, len(c.replicas))
	for i, r := range c.replicas {
		entry := map[string]any{
			"name":  r.Name(),
			"state": m.States[i].String(),
		}
		if rm, ok := r.be.(replicaMetrics); ok && m.States[i] != DownReplica {
			sm := rm.Metrics()
			entry["queue_depth"] = sm.QueueDepth
			entry["active_slots"] = sm.ActiveSlots
			entry["tokens_generated"] = sm.TokensGenerated
			entry["breaker_state"] = sm.Breaker.String()
			entry["prefix_hit_rate"] = sm.PrefixHitRate
		}
		perReplica = append(perReplica, entry)
	}
	out["per_replica"] = perReplica
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
