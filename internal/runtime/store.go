package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// WeightStore holds every layer's weights in host memory, optionally in
// quantized form, and materializes GPU-resident copies on demand. It is the
// functional analogue of the wc/wg weight split: layers listed as resident
// stay in the GPU arena permanently; the rest stream per use.
type WeightStore struct {
	layers    []*model.LayerWeights // always kept for layer norms and fallback
	packed    [][]*quant.Tensor     // per layer, per matrix; nil when not quantized
	half      [][]*tensor.F16Slice  // per layer, per matrix; nil unless f16 storage
	cfg       quant.Config
	quantized bool
	f16       bool

	pool  *threadpool.Pool // optional: parallel (de)quantization kernels
	width int

	// stage holds the two staging buffers Stage decodes into, by layer
	// parity; each is allocated on first use.
	stage [2]*model.LayerWeights
}

// UsePool routes the store's (de)quantization through a worker pool at the
// given width.
func (ws *WeightStore) UsePool(pool *threadpool.Pool, width int) {
	ws.pool, ws.width = pool, width
}

// NewWeightStore ingests the model's layers. With quantize, the matrices are
// group-quantized with cfg (the Eq. 3 one-time cost); with hostF16 (and no
// quantization) they are stored as IEEE half-precision words, matching the
// paper's FP16 deployment precision and its 2-byte transfer accounting.
func NewWeightStore(layers []*model.LayerWeights, quantize bool, cfg quant.Config, hostF16 bool) (*WeightStore, error) {
	ws := &WeightStore{layers: layers, cfg: cfg, quantized: quantize, f16: hostF16 && !quantize}
	if ws.f16 {
		ws.half = make([][]*tensor.F16Slice, len(layers))
		for i, lw := range layers {
			for _, t := range lw.Tensors() {
				ws.half[i] = append(ws.half[i], tensor.ToF16(t))
			}
		}
		return ws, nil
	}
	if !quantize {
		return ws, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws.packed = make([][]*quant.Tensor, len(layers))
	for i, lw := range layers {
		for _, t := range lw.Tensors() {
			q, err := quant.Quantize(t, cfg)
			if err != nil {
				return nil, fmt.Errorf("runtime: quantizing layer %d: %w", i, err)
			}
			ws.packed[i] = append(ws.packed[i], q)
		}
	}
	return ws, nil
}

// Quantized reports whether the store holds packed weights.
func (ws *WeightStore) Quantized() bool { return ws.quantized }

// TransferBytes returns the bytes that cross the interconnect when layer i
// is loaded: packed size when quantized, raw float32 size otherwise.
func (ws *WeightStore) TransferBytes(i int) int64 {
	if ws.quantized {
		var n int64
		for _, q := range ws.packed[i] {
			n += q.TotalBytes()
		}
		return n
	}
	if ws.f16 {
		var n int64
		for _, h := range ws.half[i] {
			n += h.Bytes()
		}
		return n
	}
	return ws.layers[i].Bytes()
}

// ResidentBytes returns the GPU-arena footprint of a loaded layer: the
// dequantized working copy.
func (ws *WeightStore) ResidentBytes(i int) int64 { return ws.layers[i].Bytes() }

// Load materializes layer i for GPU use, performing the real dequantization
// when the store is packed. The returned LayerWeights alias the originals in
// the unquantized case and are fresh tensors otherwise.
func (ws *WeightStore) Load(i int) *model.LayerWeights {
	if !ws.quantized && !ws.f16 {
		return ws.layers[i]
	}
	return ws.decodeInto(newLayerLike(ws.layers[i]), i)
}

// Stage is Load into the store's staging buffer for i's parity instead of
// fresh tensors. The result stays valid until the next Stage of a layer of
// the same parity, so a caller may hold two consecutive layers at once —
// one computing while the next loads, as Engine.forEachLayer does — and
// nothing more. An unpacked store returns the originals, as Load does.
func (ws *WeightStore) Stage(i int) *model.LayerWeights {
	if !ws.quantized && !ws.f16 {
		return ws.layers[i]
	}
	buf := &ws.stage[i%2]
	if *buf == nil {
		*buf = newLayerLike(ws.layers[i])
	}
	return ws.decodeInto(*buf, i)
}

// newLayerLike allocates zeroed matrices of src's shapes.
func newLayerLike(src *model.LayerWeights) *model.LayerWeights {
	return &model.LayerWeights{
		WQ: tensor.New(src.WQ.Shape()...), WK: tensor.New(src.WK.Shape()...),
		WV: tensor.New(src.WV.Shape()...), WO: tensor.New(src.WO.Shape()...),
		W1: tensor.New(src.W1.Shape()...), W2: tensor.New(src.W2.Shape()...),
	}
}

// decodeInto dequantizes (or f16-decodes) layer i's matrices into out's,
// which must have their shapes, and shares the layer norms.
func (ws *WeightStore) decodeInto(out *model.LayerWeights, i int) *model.LayerWeights {
	src := ws.layers[i]
	out.LN1Gain, out.LN2Gain = src.LN1Gain, src.LN2Gain
	dst := [...]*tensor.Tensor{out.WQ, out.WK, out.WV, out.WO, out.W1, out.W2}
	for j, t := range dst {
		if ws.f16 {
			ws.half[i][j].DecodeInto(t.Data())
		} else {
			quant.DequantizeInto(ws.pool, ws.width, t.Data(), ws.packed[i][j])
		}
	}
	return out
}

// NumLayers returns the layer count.
func (ws *WeightStore) NumLayers() int { return len(ws.layers) }

// kvChunk is one appended KV segment for a (layer, sequence) slot, stored
// quantized, half-precision, or raw float32. Every chunk carries a checksum
// sealed at append time: quantized chunks via the quant tensors' own CRCs,
// raw and half-precision chunks via crc, the CRC-32 (IEEE) of the float32
// payload the fetch path reconstructs.
type kvChunk struct {
	k, v   *tensor.Tensor
	hk, hv *tensor.F16Slice
	qk, qv *quant.Tensor
	crc    uint32
}

// floatsCRC hashes float32 payloads by their little-endian IEEE-754 bit
// patterns, one crc32.Update per payload.
func floatsCRC(payloads ...[]float32) uint32 {
	var crc uint32
	for _, xs := range payloads {
		crc = crc32.Update(crc, crc32.IEEETable, leBytes(xs))
	}
	return crc
}

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// leBytes returns the little-endian encoding of xs: a view of its memory on
// little-endian hosts, a copy elsewhere.
func leBytes(xs []float32) []byte {
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))
	}
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// shape returns the chunk's [rows, cols].
func (c kvChunk) shape() []int {
	switch {
	case c.qk != nil:
		return c.qk.Shape()
	case c.hk != nil:
		return c.hk.Shape()
	default:
		return c.k.Shape()
	}
}

func (c kvChunk) transferBytes() int64 {
	switch {
	case c.qk != nil:
		return c.qk.TotalBytes() + c.qv.TotalBytes()
	case c.hk != nil:
		return c.hk.Bytes() + c.hv.Bytes()
	default:
		return c.k.Bytes() + c.v.Bytes()
	}
}

// KVStore is the host-side KV cache: per (layer, sequence) chunk lists,
// quantized when the policy says so (Eqs. 6–7's real counterpart).
//
// The chunk table is guarded by an RWMutex so concurrent observers (metrics,
// a spill in flight next to a fetch retry) are safe; the serving session
// remains the sole mutator in practice, and the race-mode tests pin the
// locking down.
type KVStore struct {
	layers, batch int
	quantized     bool
	f16           bool
	cfg           quant.Config

	mu      sync.RWMutex
	chunks  [][][]kvChunk   // [layer][seq][]chunk
	slotCfg []*quant.Config // per-seq quantization override (pressure ladder rung 1)

	pool  *threadpool.Pool
	width int
	inj   *faults.Injector // optional: in-flight corruption injection
}

// UsePool routes the store's (de)quantization through a worker pool at the
// given width.
func (st *KVStore) UsePool(pool *threadpool.Pool, width int) {
	st.pool, st.width = pool, width
}

// UseFaults wires a fault injector into the fetch path: when the
// KVCorruption site fires, the chunk's in-flight copy is corrupted before
// verification (the host copy stays intact, so a retry succeeds).
func (st *KVStore) UseFaults(inj *faults.Injector) { st.inj = inj }

// NewKVStore creates an empty store. hostF16 stores unquantized chunks as
// half-precision words.
func NewKVStore(layers, batch int, quantize bool, cfg quant.Config, hostF16 bool) (*KVStore, error) {
	if layers <= 0 || batch <= 0 {
		return nil, fmt.Errorf("runtime: KV store geometry %d/%d must be positive", layers, batch)
	}
	if quantize {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	st := &KVStore{layers: layers, batch: batch, quantized: quantize, f16: hostF16 && !quantize, cfg: cfg}
	st.chunks = make([][][]kvChunk, layers)
	for l := range st.chunks {
		st.chunks[l] = make([][]kvChunk, batch)
	}
	st.slotCfg = make([]*quant.Config, batch)
	return st, nil
}

// Quantized reports whether new chunks are compressed store-wide.
func (st *KVStore) Quantized() bool { return st.quantized }

// SetSlotQuant overrides one sequence slot's storage form: a non-nil cfg
// quantizes that slot's future appends (the KV-pressure ladder's
// quantize-new-slots rung), nil restores the store-wide default. It has no
// effect when the whole store already quantizes.
func (st *KVStore) SetSlotQuant(seq int, cfg *quant.Config) error {
	if seq < 0 || seq >= st.batch {
		return fmt.Errorf("runtime: slot %d outside [0, %d)", seq, st.batch)
	}
	if cfg != nil {
		if err := cfg.Validate(); err != nil {
			return err
		}
		cp := *cfg
		cfg = &cp
	}
	st.mu.Lock()
	st.slotCfg[seq] = cfg
	st.mu.Unlock()
	return nil
}

// Append stores the new K/V rows for (layer, seq), quantizing them when
// enabled (the store_cache task). It returns the bytes that crossed the
// interconnect.
func (st *KVStore) Append(layer, seq int, k, v *tensor.Tensor) (int64, error) {
	// Resolve the slot's storage form first; the (de)quantization kernels run
	// outside the lock so a slow append cannot starve concurrent fetches.
	cfg, doQuant, doF16 := st.cfg, st.quantized, st.f16
	if !doQuant {
		st.mu.RLock()
		if sc := st.slotCfg[seq]; sc != nil {
			cfg, doQuant, doF16 = *sc, true, false
		}
		st.mu.RUnlock()
	}
	var c kvChunk
	switch {
	case doQuant:
		qk, err := quant.QuantizeParallel(st.pool, st.width, k, cfg)
		if err != nil {
			return 0, err
		}
		qv, err := quant.QuantizeParallel(st.pool, st.width, v, cfg)
		if err != nil {
			return 0, err
		}
		c = kvChunk{qk: qk, qv: qv}
	case doF16:
		hk, hv := tensor.ToF16(k), tensor.ToF16(v)
		// Seal over the reconstructed float32 payload — the form the fetch
		// path verifies — so FP16 rounding cannot trip the checksum.
		c = kvChunk{hk: hk, hv: hv, crc: floatsCRC(hk.ToFloat32().Data(), hv.ToFloat32().Data())}
	default:
		ck, cv := k.Clone(), v.Clone()
		c = kvChunk{k: ck, v: cv, crc: floatsCRC(ck.Data(), cv.Data())}
	}
	st.mu.Lock()
	st.chunks[layer][seq] = append(st.chunks[layer][seq], c)
	st.mu.Unlock()
	return c.transferBytes(), nil
}

// Fetch reconstructs the full K and V matrices for (layer, seq), performing
// the real dequantization of every chunk (the load_cache task) and verifying
// every chunk's checksum. It returns the tensors, the transfer byte count,
// and a transient error when a chunk fails verification — the host copy is
// intact, so the caller retries the fetch.
func (st *KVStore) Fetch(layer, seq int) (k, v *tensor.Tensor, bytes int64, err error) {
	k, v, bytes, _, err = st.FetchTimed(layer, seq)
	return k, v, bytes, err
}

// FetchTimed is Fetch that also reports the time spent purely inside the
// dequantization kernels, excluding checksum verification, copying, and
// every other staging overhead — the number the engine's dequant_kv span
// must carry so trace attribution does not over-credit dequantization.
//
// The history is staged in one pass: K and V each get one destination sized
// from the chunks' row counts, and every chunk is verified and copied or
// dequantized straight into its row range, so a fetch costs O(rows) however
// many chunks the slot holds. Each destination has one spare row of
// capacity, which the decode step's KV append fills in place (see
// tensor.AppendRows); byte counts and arena charges see only the rows.
func (st *KVStore) FetchTimed(layer, seq int) (k, v *tensor.Tensor, bytes int64, dequant time.Duration, err error) {
	// Snapshot the chunk list under the read lock; chunks themselves are
	// immutable once appended, so materialization proceeds unlocked.
	st.mu.RLock()
	chunks := st.chunks[layer][seq]
	st.mu.RUnlock()
	if len(chunks) == 0 {
		return nil, nil, 0, 0, nil
	}
	rows, cols := 0, chunks[0].shape()[1]
	for ci, c := range chunks {
		if w := c.shape()[1]; w != cols {
			return nil, nil, 0, 0, fmt.Errorf("runtime: KV chunk %d of (layer %d, seq %d) is %d wide, want %d", ci, layer, seq, w, cols)
		}
		rows += c.shape()[0]
	}
	kd := make([]float32, rows*cols, (rows+1)*cols)
	vd := make([]float32, rows*cols, (rows+1)*cols)
	off := 0
	for ci, c := range chunks {
		bytes += c.transferBytes()
		n := c.shape()[0] * cols
		d, cerr := st.materialize(c, kd[off:off+n], vd[off:off+n])
		dequant += d
		if cerr != nil {
			return nil, nil, bytes, dequant, fmt.Errorf("runtime: KV chunk %d of (layer %d, seq %d): %w", ci, layer, seq, cerr)
		}
		off += n
	}
	return tensor.FromSlice(kd, rows, cols), tensor.FromSlice(vd, rows, cols), bytes, dequant, nil
}

// materialize reconstructs one chunk's float32 rows into dk and dv,
// modeling the host-to-device transfer: the injector may corrupt the
// in-flight copy, and the chunk's checksum is verified on arrival. The
// stored payload is never modified. The duration covers only the
// dequantization kernels (zero for raw and f16 chunks).
func (st *KVStore) materialize(c kvChunk, dk, dv []float32) (time.Duration, error) {
	corrupt := st.inj.ShouldCorrupt(faults.KVCorruption)
	if c.qk != nil {
		qk, qv := c.qk, c.qv
		if corrupt {
			qk = qk.Clone()
			qk.Corrupt(1, 0x10)
		}
		if err := qk.Verify(); err != nil {
			return 0, wrapCorruption(corrupt, err)
		}
		if err := qv.Verify(); err != nil {
			return 0, wrapCorruption(corrupt, err)
		}
		t0 := time.Now()
		quant.DequantizeInto(st.pool, st.width, dk, qk)
		quant.DequantizeInto(st.pool, st.width, dv, qv)
		return time.Since(t0), nil
	}
	if c.hk != nil {
		c.hk.DecodeInto(dk)
		c.hv.DecodeInto(dv)
	} else {
		copy(dk, c.k.Data())
		copy(dv, c.v.Data())
	}
	if corrupt {
		// In-flight bit flip on the staged copy. Flipping a bit of the
		// encoding (not adding to the value) changes every float, NaN, ±Inf
		// and |x| ≥ 2^24 included, so the checksum always sees it.
		dk[0] = math.Float32frombits(math.Float32bits(dk[0]) ^ 0x10)
	}
	if got := floatsCRC(dk, dv); got != c.crc {
		return 0, wrapCorruption(corrupt,
			fmt.Errorf("runtime: KV checksum mismatch (stored %08x, computed %08x)", c.crc, got))
	}
	return 0, nil
}

// wrapCorruption tags a checksum failure caused by injected corruption as a
// transient faults.Error so the retry classifier treats it as retryable;
// genuine (non-injected) mismatches pass through untagged.
func wrapCorruption(injected bool, err error) error {
	return fmt.Errorf("%w: %w", corruptionCause(injected), err)
}

func corruptionCause(injected bool) error {
	if injected {
		return &faults.Error{Site: faults.KVCorruption, Msg: "in-flight corruption"}
	}
	return errPermanentCorruption
}

var errPermanentCorruption = fmt.Errorf("runtime: host KV payload corrupted")

// Mark snapshots the per-slot chunk counts — a rollback point taken before
// a decode step so a failed step's partial appends can be undone.
func (st *KVStore) Mark() [][]int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([][]int, st.layers)
	for l := range out {
		out[l] = make([]int, st.batch)
		for s := range st.chunks[l] {
			out[l][s] = len(st.chunks[l][s])
		}
	}
	return out
}

// Rollback truncates every slot to the chunk counts recorded by Mark,
// discarding chunks appended since.
func (st *KVStore) Rollback(mark [][]int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for l := range mark {
		for s, n := range mark[l] {
			if n < len(st.chunks[l][s]) {
				st.chunks[l][s] = st.chunks[l][s][:n]
			}
		}
	}
}

// ResetSlot drops every chunk of one sequence slot across all layers,
// recycling the slot for a new sequence (the serving session's retire path).
func (st *KVStore) ResetSlot(seq int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for l := range st.chunks {
		st.chunks[l][seq] = nil
	}
	st.slotCfg[seq] = nil
}

// ChunkCount returns how many chunks are stored for (layer, seq).
func (st *KVStore) ChunkCount(layer, seq int) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.chunks[layer][seq])
}

// SeqLen returns the cached token count for (layer, seq).
func (st *KVStore) SeqLen(layer, seq int) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, c := range st.chunks[layer][seq] {
		n += c.shape()[0]
	}
	return n
}

// HostBytes returns the store's host-memory footprint (compressed sizes for
// quantized chunks).
func (st *KVStore) HostBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total int64
	for l := range st.chunks {
		for s := range st.chunks[l] {
			for _, c := range st.chunks[l][s] {
				total += c.transferBytes()
			}
		}
	}
	return total
}
