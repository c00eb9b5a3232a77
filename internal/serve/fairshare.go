package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultTenant is the reserved tenant name requests with no (or an unknown)
// tenant bill to when multi-tenancy is enabled. Configuring it explicitly
// overrides the implicit open default.
const DefaultTenant = "default"

// TenantConfig is one tenant's admission contract.
type TenantConfig struct {
	// Slots is the tenant's active-slot quota — how many of the scheduler's
	// slots its requests may hold at once. Zero in an explicit entry means the
	// tenant is suspended: its submissions are rejected permanently (HTTP 422).
	Slots int
	// QueueDepth bounds the tenant's admission queue; zero takes the global
	// Config.QueueDepth.
	QueueDepth int
	// Weight is the tenant's fair-share weight: the dispatcher grants each
	// tenant Weight admissions per round-robin round. Zero means 1.
	Weight int
}

// ParseTenantSpec parses the CLI tenant grammar: comma-separated
// name=slots[/weight[/depth]] entries, e.g. "free=1,pro=2/3,batch=1/1/16".
// Slots 0 declares the tenant suspended; omitted weight/depth take the
// fair-share defaults (weight 1, global queue depth).
func ParseTenantSpec(spec string) (map[string]TenantConfig, error) {
	out := map[string]TenantConfig{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: tenant entry %q: want name=slots[/weight[/depth]]", entry)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("serve: tenant %q configured twice", name)
		}
		parts := strings.Split(rest, "/")
		if len(parts) > 3 {
			return nil, fmt.Errorf("serve: tenant entry %q: want name=slots[/weight[/depth]]", entry)
		}
		var tc TenantConfig
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 0 {
				return nil, fmt.Errorf("serve: tenant entry %q: bad number %q", entry, p)
			}
			switch i {
			case 0:
				tc.Slots = v
			case 1:
				if v == 0 {
					return nil, fmt.Errorf("serve: tenant entry %q: weight must be >= 1", entry)
				}
				tc.Weight = v
			case 2:
				tc.QueueDepth = v
			}
		}
		out[name] = tc
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: tenant spec %q is empty", spec)
	}
	return out, nil
}

// fill applies the per-tenant zero-value defaults (Slots is left alone:
// zero is the suspended sentinel, meaningful only on explicit entries).
func (c Config) fillTenant(tc TenantConfig) TenantConfig {
	if tc.QueueDepth == 0 {
		tc.QueueDepth = c.QueueDepth
	}
	if tc.Weight == 0 {
		tc.Weight = 1
	}
	return tc
}

// fairShare reports whether multi-tenant fair-share scheduling is on.
func (c Config) fairShare() bool { return len(c.Tenants) > 0 }

// tenantConfig resolves a request's tenant tag to its effective name and
// contract. With no tenants configured every request bills to one implicit
// tenant, named "", with the global slots and depth and weight 1 (the tag is
// metadata only). Otherwise empty/unknown tags bill to DefaultTenant,
// governed by an explicit "default" entry when present and by an open
// default (global slots/depth, weight 1) when not.
func (c Config) tenantConfig(name string) (string, TenantConfig) {
	if !c.fairShare() {
		return "", TenantConfig{Slots: c.Slots, QueueDepth: c.QueueDepth, Weight: 1}
	}
	if name == "" {
		name = DefaultTenant
	}
	if tc, ok := c.Tenants[name]; ok {
		return name, c.fillTenant(tc)
	}
	if tc, ok := c.Tenants[DefaultTenant]; ok {
		return DefaultTenant, c.fillTenant(tc)
	}
	return DefaultTenant, TenantConfig{Slots: c.Slots, QueueDepth: c.QueueDepth, Weight: 1}
}

// tenantState is one tenant's live queueing state inside fairQueue.
type tenantState struct {
	name   string
	cfg    TenantConfig
	q      admitQueue
	credit int
	// full is what a push onto this tenant's full queue returns: the bare
	// ErrQueueFull for the implicit single tenant, tenant-wrapped otherwise.
	full error
}

// fairQueue is the scheduler's admission queue: one bounded FIFO per tenant,
// dispatched by weighted round-robin with credits. Each refill round grants
// every tenant Weight admissions, the cursor walks the (sorted) tenant
// order, and a tenant with queued work is skipped only while it is out of
// credit or its caller-supplied eligibility (active-slot quota) says no.
// Single-tenant mode is the one-tenant case: one implicit tenant of weight 1
// and depth QueueDepth, which credit round-robin dispatches in FIFO order.
// Resumed evictees sit in a capacity-exempt front lane dispatched before
// everything, preserving the recompute-on-resume contract.
//
// Invariants (fuzzed in FuzzFairShareQueue): per-tenant depth never exceeds
// its capacity, push fails exactly when the owning queue is full, no request
// is ever lost or duplicated, and an always-eligible tenant with queued work
// is dispatched at least once per refill round (no starvation).
type fairQueue struct {
	front   admitQueue // evict-resume lane: capacity-exempt, dispatched first
	tenants map[string]*tenantState
	order   []string // sorted tenant names: deterministic round-robin walk
	cursor  int
}

// newFairQueue builds the queue for the config's tenancy mode: the
// configured tenants plus the default, or the one implicit tenant.
func newFairQueue(cfg Config) *fairQueue {
	q := &fairQueue{tenants: map[string]*tenantState{}}
	add := func(name string, tc TenantConfig, full error) {
		q.tenants[name] = &tenantState{
			name:   name,
			cfg:    tc,
			q:      admitQueue{capacity: tc.QueueDepth},
			credit: tc.Weight,
			full:   full,
		}
		q.order = append(q.order, name)
	}
	if !cfg.fairShare() {
		name, tc := cfg.tenantConfig("")
		add(name, tc, ErrQueueFull)
		return q
	}
	wrapped := func(name string) error { return fmt.Errorf("serve: tenant %s: %w", name, ErrQueueFull) }
	for name, tc := range cfg.Tenants {
		add(name, cfg.fillTenant(tc), wrapped(name))
	}
	if _, ok := q.tenants[DefaultTenant]; !ok {
		name, tc := cfg.tenantConfig("")
		add(name, tc, wrapped(name))
	}
	sort.Strings(q.order)
	return q
}

// push enqueues p on its tenant's queue, reporting the tenant's queue-full
// error when that queue is at capacity.
func (q *fairQueue) push(p *pending) error {
	ts := q.tenants[p.tenant]
	if ts == nil {
		// Submit resolves tenants before queueing; an unknown name here is a
		// bug, not traffic.
		return fmt.Errorf("serve: unresolved tenant %q", p.tenant)
	}
	if !ts.q.push(p) {
		return ts.full
	}
	return nil
}

// pushFront re-enqueues an evicted request on the capacity-exempt resume
// lane, ahead of every tenant queue.
func (q *fairQueue) pushFront(p *pending) { q.front.pushFront(p) }

// next returns the request the dispatcher would admit now, without removing
// it: the resume lane's head if any (evictees bypass eligibility — their
// quota slot was freed by the eviction itself), otherwise the weighted
// round-robin choice among tenants that have queued work, credit, and an
// eligible quota. Credits refill en masse when every workable tenant is out,
// which is the only state next mutates; repeated calls without an intervening
// take return the same request.
func (q *fairQueue) next(eligible func(tenant string) bool) *pending {
	if p := q.front.peek(); p != nil {
		return p
	}
	for pass := 0; pass < 2; pass++ {
		workable := false
		for i := 0; i < len(q.order); i++ {
			ts := q.tenants[q.order[(q.cursor+i)%len(q.order)]]
			if ts.q.len() == 0 || !eligible(ts.name) {
				continue
			}
			workable = true
			if ts.credit > 0 {
				return ts.q.peek()
			}
		}
		if !workable {
			return nil
		}
		// Every workable tenant exhausted its credit: start a new round.
		for _, name := range q.order {
			q.tenants[name].credit = q.tenants[name].cfg.Weight
		}
	}
	return nil
}

// take removes p (previously returned by next) from whichever lane holds it,
// charging the owning tenant's credit and advancing the cursor when that
// credit runs out. Removal is by identity, so a racing push cannot make take
// remove the wrong request.
func (q *fairQueue) take(p *pending) {
	if q.front.remove(p) {
		return
	}
	for idx, name := range q.order {
		ts := q.tenants[name]
		if ts.q.remove(p) {
			ts.credit--
			if ts.credit <= 0 {
				q.cursor = (idx + 1) % len(q.order)
			} else {
				q.cursor = idx
			}
			return
		}
	}
}

// len is the total queued count across every lane.
func (q *fairQueue) len() int {
	n := q.front.len()
	for _, ts := range q.tenants {
		n += ts.q.len()
	}
	return n
}

// depth returns one tenant's queued count (resume lane excluded).
func (q *fairQueue) depth(tenant string) int {
	if ts := q.tenants[tenant]; ts != nil {
		return ts.q.len()
	}
	return 0
}

// snapshot returns every queued request (resume lane first, then tenants in
// round-robin order) for drain estimation.
func (q *fairQueue) snapshot() []*pending {
	out := append([]*pending(nil), q.front.items...)
	for _, name := range q.order {
		out = append(out, q.tenants[name].q.items...)
	}
	return out
}

// bumpTenant applies a counter update under the scheduler mutex (no-op in
// single-tenant mode).
func (s *Scheduler) bumpTenant(name string, f func(*TenantMetrics)) {
	if !s.cfg.fairShare() {
		return
	}
	s.mu.Lock()
	m := s.tenantCounts[name]
	if m == nil {
		m = &TenantMetrics{}
		s.tenantCounts[name] = m
	}
	f(m)
	s.mu.Unlock()
}

// tenantEligibleLocked is the dispatcher's quota check: a tenant may only
// take a slot while its active count is below its quota (always true for the
// implicit single tenant, whose quota is every slot). Called by
// fairQueue.next with s.mu held.
func (s *Scheduler) tenantEligibleLocked(name string) bool {
	_, tc := s.cfg.tenantConfig(name)
	if tc.Slots <= 0 {
		return false
	}
	return s.tenantActive[name] < tc.Slots
}
