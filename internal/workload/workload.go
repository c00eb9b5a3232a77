// Package workload generates deterministic, seeded request traces for the
// serving stack: diurnal, bursty (MMPP-style on/off), and heavy-tail
// (Pareto interarrival, lognormal length) arrival processes, multi-turn chat
// sessions whose growing prompts exercise the shared-prefix KV cache,
// long-context summarization, batch-offline jobs, and multi-tenant mixes.
//
// Every generator is a pure function of its Spec: the same seed produces a
// byte-identical trace (arrival times, tenants, session structure, prompt
// tokens, output budgets), which the golden-trace tests pin via Encode. The
// estimator-accuracy grid (internal/experiments, `lmo-bench -run workload`)
// replays these traces through the real scheduler and scores every
// performance-model estimator against what actually happened.
//
// Job is the offline counterpart: the fixed geometry of one batch job
// (prompt and generation lengths, batch shape, and the zig-zag block FlexGen
// and LM-Offload schedule over), with synthetic prompts for the runtime.
package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"
)

// Request is one generated serving request: an arrival offset from the trace
// start, the tenant it bills to, optional chat-session coordinates, and the
// prompt/budget shape.
type Request struct {
	// At is the arrival time relative to the trace start.
	At time.Duration
	// After, when set, makes the request's arrival an event instead:
	// Replay submits it once an earlier request has delivered some tokens
	// (and the trigger's Delay has passed), and At is ignored.
	After *Trigger
	// Tenant is the billing tenant ("" until AssignTenants or a tenant-tagged
	// spec fills it in).
	Tenant string
	// Session and Turn locate a request inside a multi-turn chat session;
	// Session is -1 for requests that are not part of one.
	Session int
	// Turn is the 0-based turn index within the session.
	Turn int
	// Prompt is the token sequence to prefill.
	Prompt []int
	// MaxNewTokens is the generation budget.
	MaxNewTokens int
	// Kind names the generator that produced the request.
	Kind string
}

// Trigger is a request's arrival on another request's progress: Delay
// after request Index of the same trace, which must come earlier, has
// delivered its Tokens-th token, Tokens ≥ 1 (or has ended with fewer).
type Trigger struct {
	Index, Tokens int
	Delay         time.Duration
}

// Trace is a time-ordered request sequence.
type Trace []Request

// Duration returns the last arrival offset (zero for an empty trace).
func (t Trace) Duration() time.Duration {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].At
}

// Tenants returns the distinct tenants appearing in the trace, sorted.
func (t Trace) Tenants() []string {
	seen := map[string]bool{}
	for _, r := range t {
		seen[r.Tenant] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// promptHash is a stable FNV-1a digest of the prompt tokens, so the golden
// encoding pins prompt *content* without storing every token.
func promptHash(prompt []int) uint32 {
	h := fnv.New32a()
	var buf [4]byte
	for _, tok := range prompt {
		buf[0] = byte(tok)
		buf[1] = byte(tok >> 8)
		buf[2] = byte(tok >> 16)
		buf[3] = byte(tok >> 24)
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Encode renders the trace in its canonical golden form: one tab-separated
// line per request with the arrival offset in microseconds, tenant, session
// coordinates, prompt length, budget, and a prompt-content hash. Two traces
// encode identically iff they are identical in every golden-pinned respect.
func (t Trace) Encode() string {
	var b strings.Builder
	for i, r := range t {
		tenant := r.Tenant
		if tenant == "" {
			tenant = "-"
		}
		fmt.Fprintf(&b, "%d\t%dus\t%s\t%s\tsess=%d\tturn=%d\tplen=%d\tnew=%d\tph=%08x",
			i, r.At.Microseconds(), r.Kind, tenant, r.Session, r.Turn,
			len(r.Prompt), r.MaxNewTokens, promptHash(r.Prompt))
		if r.After != nil {
			fmt.Fprintf(&b, "\tafter=%d@%d", r.After.Index, r.After.Tokens)
			if r.After.Delay != 0 {
				fmt.Fprintf(&b, "+%dus", r.After.Delay.Microseconds())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Merge interleaves traces by arrival time. Ties keep the argument order
// (stable), so merges are as deterministic as their inputs.
func Merge(traces ...Trace) Trace {
	var out Trace
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate reports malformed generator parameters.
func (s Spec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("workload: request count %d must be positive", s.N)
	}
	if s.Vocab <= 0 {
		return fmt.Errorf("workload: vocab %d must be positive", s.Vocab)
	}
	if s.MinPromptLen < 1 || s.MaxPromptLen < s.MinPromptLen {
		return fmt.Errorf("workload: prompt length bounds [%d, %d] invalid", s.MinPromptLen, s.MaxPromptLen)
	}
	if s.MinNewTokens < 1 || s.MaxNewTokens < s.MinNewTokens {
		return fmt.Errorf("workload: budget bounds [%d, %d] invalid", s.MinNewTokens, s.MaxNewTokens)
	}
	if s.Horizon < 0 {
		return fmt.Errorf("workload: negative horizon %v", s.Horizon)
	}
	return nil
}

// Spec parameterizes a generator run. The zero values of the optional fields
// are filled by withDefaults; Seed, N, and Vocab must be set.
type Spec struct {
	// Seed drives every random draw; equal specs generate equal traces.
	Seed int64
	// N is the number of requests to generate.
	N int
	// Vocab bounds prompt token values to [0, Vocab).
	Vocab int
	// Horizon is the arrival window the trace targets (generators may run
	// slightly past it); zero takes N × 15ms.
	Horizon time.Duration
	// Prompt-length bounds; zero takes [2, 24].
	MinPromptLen, MaxPromptLen int
	// Output-budget bounds; zero takes [2, 12].
	MinNewTokens, MaxNewTokens int
	// Tenant tags every generated request (AssignTenants can re-tag later).
	Tenant string
	// SessionBase offsets chat-session IDs so merged traces from multiple
	// chat generators keep their sessions distinct.
	SessionBase int
}

// withDefaults fills the optional fields.
func (s Spec) withDefaults() Spec {
	if s.Horizon == 0 {
		s.Horizon = time.Duration(s.N) * 15 * time.Millisecond
	}
	if s.MinPromptLen == 0 {
		s.MinPromptLen = 2
	}
	if s.MaxPromptLen == 0 {
		s.MaxPromptLen = 24
	}
	if s.MinNewTokens == 0 {
		s.MinNewTokens = 2
	}
	if s.MaxNewTokens == 0 {
		s.MaxNewTokens = 12
	}
	return s
}

// meanGap is the average interarrival the spec's horizon implies.
func (s Spec) meanGap() time.Duration {
	return s.Horizon / time.Duration(s.N)
}

// Kinds lists the built-in generators in canonical order.
func Kinds() []string {
	return []string{"diurnal", "bursty", "heavytail", "chat", "summarize", "batch"}
}

// Generate dispatches to a built-in generator by kind name.
func Generate(kind string, s Spec) (Trace, error) {
	if err := s.withDefaults().Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case "diurnal":
		return Diurnal(s), nil
	case "bursty":
		return Bursty(s), nil
	case "heavytail":
		return HeavyTail(s), nil
	case "chat":
		return Chat(s), nil
	case "summarize":
		return Summarize(s), nil
	case "batch":
		return BatchOffline(s), nil
	default:
		return nil, fmt.Errorf("workload: unknown generator %q (have %v)", kind, Kinds())
	}
}
