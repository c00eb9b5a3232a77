package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/tensor"
)

// PrefixStore is the shared-prefix KV cache behind Session.Admit: per-layer
// raw-float32 K/V blocks keyed by token-prefix hash chains, so a new request
// whose prompt extends a cached prefix seeds its slot from the stored blocks
// and only prefills the suffix.
//
// Data layout. A prompt is split into fixed-size blocks of BlockTokens
// tokens; block i stores, for every layer, the [BlockTokens, hidden] K and V
// rows the prefill computed for those positions. Blocks form chains: block i
// is keyed by hash(key(block i-1), tokens of block i), and each entry keeps
// both its parent pointer and its own token slice, so a lookup verifies the
// actual tokens along the chain — hash collisions can never alias two
// distinct prefixes (FuzzPrefixLookup pins this).
//
// Stored values are always the raw float32 prefill values. That is the mode
// the live prefill attention reads in every configuration (quantization
// happens only when a chunk is appended to a slot's store), so a seeded
// prefix is bit-identical for raw, quantized, and host-resident slots alike:
// the suffix prefill appends to the seeded rows and the slot's own store then
// chunks and (de)quantizes the full prompt exactly as a cold prefill would.
//
// Refcount lifecycle. Acquire pins every block of the matched chain for the
// lifetime of the admitted slot; Session.Retire releases the pins. Pinned
// blocks (and their ancestors, which necessarily have live children) are
// never evicted, so a seeding read mid-admit can never race a reclaim.
// Unreferenced leaf blocks are reclaimed LRU-first when an insert needs
// space, or in bulk by the pressure ladder's EvictUnreferenced rung.
//
// Bytes are charged to a dedicated Arena, so the cache budget shares the
// engine's saturating accounting and high-water tracking.
//
// All methods are safe for concurrent use.
type PrefixStore struct {
	mu      sync.Mutex
	block   int // tokens per block
	layers  int
	hidden  int
	arena   *Arena
	entries map[uint64][]*prefixEntry
	clock   int64 // logical LRU clock, bumped per touch

	hits, misses, inserts, evictions, reusedTokens int64
}

// prefixEntry is one cached block: the tokens it covers, its chain parent,
// and the per-layer K/V rows. refs counts live slot pins; children counts
// direct chain extensions (only refs==0 && children==0 entries are
// evictable, so eviction peels chains from the leaves inward).
type prefixEntry struct {
	hash     uint64
	parent   *prefixEntry
	tokens   []int
	keys     []*tensor.Tensor // per layer, [block, hidden]
	vals     []*tensor.Tensor
	refs     int
	children int
	lastUse  int64
	bytes    int64
}

// DefaultPrefixBlockTokens is the block granularity used when a caller
// leaves it unset: small enough that short shared prefixes still hit, large
// enough that chain walks stay cheap.
const DefaultPrefixBlockTokens = 16

// NewPrefixStore builds a prefix cache bounded to capacity bytes.
// blockTokens <= 0 takes DefaultPrefixBlockTokens.
func NewPrefixStore(capacity int64, blockTokens, layers, hidden int) (*PrefixStore, error) {
	if blockTokens <= 0 {
		blockTokens = DefaultPrefixBlockTokens
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("runtime: prefix store capacity %d must be positive", capacity)
	}
	if layers <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("runtime: prefix store geometry %d layers x %d hidden must be positive", layers, hidden)
	}
	arena, err := NewArena("prefix-cache", capacity)
	if err != nil {
		return nil, err
	}
	return &PrefixStore{
		block:   blockTokens,
		layers:  layers,
		hidden:  hidden,
		arena:   arena,
		entries: make(map[uint64][]*prefixEntry),
	}, nil
}

// BlockTokens returns the store's block granularity.
func (ps *PrefixStore) BlockTokens() int { return ps.block }

// blockBytes is the charged size of one block: K+V rows across every layer.
func (ps *PrefixStore) blockBytes() int64 {
	return 2 * int64(ps.layers) * int64(ps.block) * int64(ps.hidden) * 4
}

// blockHash chains the parent's key with this block's tokens.
func blockHash(parent uint64, tokens []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], parent)
	h.Write(buf[:])
	for _, t := range tokens {
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// findLocked returns the entry for the given parent and exact token block,
// or nil. Token equality plus parent identity makes the match collision-proof.
func (ps *PrefixStore) findLocked(parent *prefixEntry, hash uint64, tokens []int) *prefixEntry {
	for _, e := range ps.entries[hash] {
		if e.parent != parent || len(e.tokens) != len(tokens) {
			continue
		}
		same := true
		for i, t := range e.tokens {
			if t != tokens[i] {
				same = false
				break
			}
		}
		if same {
			return e
		}
	}
	return nil
}

// walkLocked matches as many whole blocks of prompt as the store holds,
// capped at maxTokens, returning the chain in order.
func (ps *PrefixStore) walkLocked(prompt []int, maxTokens int) []*prefixEntry {
	if maxTokens > len(prompt) {
		maxTokens = len(prompt)
	}
	var chain []*prefixEntry
	var parent *prefixEntry
	parentHash := uint64(0)
	for off := 0; off+ps.block <= maxTokens; off += ps.block {
		blk := prompt[off : off+ps.block]
		h := blockHash(parentHash, blk)
		e := ps.findLocked(parent, h, blk)
		if e == nil {
			break
		}
		chain = append(chain, e)
		parent, parentHash = e, h
	}
	return chain
}

// PrefixMatch is a pinned chain of cached blocks covering a prompt's prefix.
// The pins hold until Release; SeedLayer reads stay valid for exactly that
// window.
type PrefixMatch struct {
	ps       *PrefixStore
	chain    []*prefixEntry
	tokens   int
	released bool
	mu       sync.Mutex
}

// Acquire pins the longest cached prefix of prompt, at block granularity and
// at most maxTokens tokens (callers pass len(prompt)-1 so at least one
// suffix token remains to prefill). It returns nil — and counts a miss —
// when no block matches.
func (ps *PrefixStore) Acquire(prompt []int, maxTokens int) *PrefixMatch {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	chain := ps.walkLocked(prompt, maxTokens)
	if len(chain) == 0 {
		ps.misses++
		return nil
	}
	ps.clock++
	for _, e := range chain {
		e.refs++
		e.lastUse = ps.clock
	}
	tokens := len(chain) * ps.block
	ps.hits++
	ps.reusedTokens += int64(tokens)
	return &PrefixMatch{ps: ps, chain: chain, tokens: tokens}
}

// MatchTokens reports how many tokens Acquire would reuse, without pinning —
// the scheduler's suffix-cost estimate for a still-queued request.
func (ps *PrefixStore) MatchTokens(prompt []int, maxTokens int) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.walkLocked(prompt, maxTokens)) * ps.block
}

// Tokens returns the pinned prefix length in tokens.
func (m *PrefixMatch) Tokens() int { return m.tokens }

// SeedLayer returns freshly allocated [tokens, hidden] K and V matrices for
// one layer, concatenated across the pinned chain. The copies are the
// caller's to own (a live cache installs and later drops them); the
// underlying blocks stay immutable in the store.
func (m *PrefixMatch) SeedLayer(layer int) (k, v *tensor.Tensor) {
	ps := m.ps
	k = tensor.New(m.tokens, ps.hidden)
	v = tensor.New(m.tokens, ps.hidden)
	for bi, e := range m.chain {
		for r := 0; r < ps.block; r++ {
			copy(k.Row(bi*ps.block+r), e.keys[layer].Row(r))
			copy(v.Row(bi*ps.block+r), e.vals[layer].Row(r))
		}
	}
	return k, v
}

// Release drops the chain's pins. Idempotent; Session.Retire calls it once
// per admitted slot, after which the refcounts are back to zero and the
// blocks become evictable.
func (m *PrefixMatch) Release() {
	if m == nil {
		return
	}
	m.mu.Lock()
	released := m.released
	m.released = true
	m.mu.Unlock()
	if released {
		return
	}
	m.ps.mu.Lock()
	for _, e := range m.chain {
		if e.refs > 0 {
			e.refs--
		}
	}
	m.ps.mu.Unlock()
}

// PrefixCandidate collects, during one prefill attempt, the KV rows of the
// prompt's full blocks that the store does not hold yet. It is committed
// only after the attempt succeeds, so a fault-aborted attempt can never seed
// the cache with rolled-back values.
type PrefixCandidate struct {
	ps                 *PrefixStore
	prompt             []int
	fromBlock, toBlock int
	keys, vals         [][]*tensor.Tensor // [layer][block-fromBlock]
}

// NewCandidate prepares an insert for prompt given that matched tokens came
// from the store. It returns nil when every full block is already cached.
// Unlike Acquire, the candidate may cover blocks up to the full prompt
// length: the prefix KV of the final token is as valid as any other.
func (ps *PrefixStore) NewCandidate(prompt []int, matched int) *PrefixCandidate {
	from := matched / ps.block
	to := len(prompt) / ps.block
	if to <= from {
		return nil
	}
	c := &PrefixCandidate{
		ps:        ps,
		prompt:    append([]int(nil), prompt...),
		fromBlock: from,
		toBlock:   to,
		keys:      make([][]*tensor.Tensor, ps.layers),
		vals:      make([][]*tensor.Tensor, ps.layers),
	}
	return c
}

// CaptureLayer copies the candidate blocks' rows out of one layer's full
// [promptLen, hidden] K/V matrices (the live prefill cache, before the layer
// is offloaded and dropped).
func (c *PrefixCandidate) CaptureLayer(layer int, k, v *tensor.Tensor) {
	ps := c.ps
	n := c.toBlock - c.fromBlock
	ck := make([]*tensor.Tensor, n)
	cv := make([]*tensor.Tensor, n)
	for b := 0; b < n; b++ {
		bk := tensor.New(ps.block, ps.hidden)
		bv := tensor.New(ps.block, ps.hidden)
		base := (c.fromBlock + b) * ps.block
		for r := 0; r < ps.block; r++ {
			copy(bk.Row(r), k.Row(base+r))
			copy(bv.Row(r), v.Row(base+r))
		}
		ck[b], cv[b] = bk, bv
	}
	c.keys[layer], c.vals[layer] = ck, cv
}

// Commit inserts the candidate's blocks, evicting unreferenced LRU blocks as
// needed to fit the budget. Blocks whose chain parent has meanwhile been
// evicted cannot attach and are skipped (the chain re-forms on a later cold
// prefill); blocks another admit inserted first are skipped silently. It
// returns how many blocks were inserted and how many evicted to make room.
func (ps *PrefixStore) Commit(c *PrefixCandidate) (inserted, evicted int) {
	if c == nil {
		return 0, 0
	}
	for _, lk := range c.keys {
		if lk == nil {
			// A layer was never captured (the attempt aborted mid-prefill and
			// the caller committed anyway); refuse the partial insert.
			return 0, 0
		}
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	// Re-walk the chain up to fromBlock: the parents must still exist.
	var parent *prefixEntry
	parentHash := uint64(0)
	for b := 0; b < c.fromBlock; b++ {
		blk := c.prompt[b*ps.block : (b+1)*ps.block]
		h := blockHash(parentHash, blk)
		e := ps.findLocked(parent, h, blk)
		if e == nil {
			return inserted, evicted
		}
		parent, parentHash = e, h
	}
	ps.clock++
	for b := c.fromBlock; b < c.toBlock; b++ {
		blk := c.prompt[b*ps.block : (b+1)*ps.block]
		h := blockHash(parentHash, blk)
		if e := ps.findLocked(parent, h, blk); e != nil {
			// Raced with another insert of the same prefix; theirs wins.
			e.lastUse = ps.clock
			parent, parentHash = e, h
			continue
		}
		need := ps.blockBytes()
		ev, ok := ps.makeRoomLocked(need)
		evicted += ev
		if !ok {
			return inserted, evicted
		}
		if err := ps.arena.Alloc(need); err != nil {
			return inserted, evicted
		}
		e := &prefixEntry{
			hash:    h,
			parent:  parent,
			tokens:  append([]int(nil), blk...),
			keys:    make([]*tensor.Tensor, ps.layers),
			vals:    make([]*tensor.Tensor, ps.layers),
			lastUse: ps.clock,
			bytes:   need,
		}
		for l := 0; l < ps.layers; l++ {
			e.keys[l] = c.keys[l][b-c.fromBlock]
			e.vals[l] = c.vals[l][b-c.fromBlock]
		}
		ps.entries[h] = append(ps.entries[h], e)
		if parent != nil {
			parent.children++
		}
		ps.inserts++
		inserted++
		parent, parentHash = e, h
	}
	return inserted, evicted
}

// makeRoomLocked evicts unreferenced LRU leaves until need bytes fit,
// reporting how many blocks went and whether the space is now available.
func (ps *PrefixStore) makeRoomLocked(need int64) (evicted int, ok bool) {
	for ps.arena.Used()+need > ps.arena.Capacity() {
		if !ps.evictOneLocked() {
			return evicted, false
		}
		evicted++
	}
	return evicted, true
}

// evictOneLocked removes the least-recently-used unpinned leaf block.
func (ps *PrefixStore) evictOneLocked() bool {
	var victim *prefixEntry
	for _, chain := range ps.entries {
		for _, e := range chain {
			if e.refs > 0 || e.children > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
	}
	if victim == nil {
		return false
	}
	ps.removeLocked(victim)
	return true
}

// removeLocked unlinks one entry and returns its bytes to the arena.
func (ps *PrefixStore) removeLocked(e *prefixEntry) {
	chain := ps.entries[e.hash]
	for i, o := range chain {
		if o == e {
			ps.entries[e.hash] = append(chain[:i:i], chain[i+1:]...)
			break
		}
	}
	if len(ps.entries[e.hash]) == 0 {
		delete(ps.entries, e.hash)
	}
	if e.parent != nil && e.parent.children > 0 {
		e.parent.children--
	}
	ps.arena.Free(e.bytes)
	ps.evictions++
}

// EvictUnreferenced reclaims every block no live slot pins — the pressure
// ladder's cheapest rung: dropping cached prefixes costs future hit rate,
// never a live slot's storage mode. Chains are peeled leaf-first, so interior
// blocks whose children all went become reclaimable in the same sweep. It
// returns the number of blocks evicted.
func (ps *PrefixStore) EvictUnreferenced() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for ps.evictOneLocked() {
		n++
	}
	return n
}

// UsedBytes returns the charged cache bytes.
func (ps *PrefixStore) UsedBytes() int64 { return ps.arena.Used() }

// Blocks returns the number of cached blocks.
func (ps *PrefixStore) Blocks() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, chain := range ps.entries {
		n += len(chain)
	}
	return n
}

// PrefixStats is a point-in-time snapshot of the store's counters.
type PrefixStats struct {
	Hits, Misses       int64
	Inserts, Evictions int64
	ReusedTokens       int64
	UsedBytes          int64
	CapacityBytes      int64
	Blocks             int
}

// Stats snapshots the store.
func (ps *PrefixStore) Stats() PrefixStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, chain := range ps.entries {
		n += len(chain)
	}
	return PrefixStats{
		Hits: ps.hits, Misses: ps.misses,
		Inserts: ps.inserts, Evictions: ps.evictions,
		ReusedTokens:  ps.reusedTokens,
		UsedBytes:     ps.arena.Used(),
		CapacityBytes: ps.arena.Capacity(),
		Blocks:        n,
	}
}

// refsTotal sums live pins across every block (test hook: must be zero once
// every admitted slot retired).
func (ps *PrefixStore) refsTotal() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, chain := range ps.entries {
		for _, e := range chain {
			n += e.refs
		}
	}
	return n
}
