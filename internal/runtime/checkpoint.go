package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/tensor"
)

// Checkpoint is a resumable snapshot of an in-flight generation: the token
// state plus the full KV cache in float32 form. Resuming under the same
// unquantized (or HostF16) policy reproduces the remaining tokens exactly;
// resuming under KV quantization re-quantizes the snapshot, so the restored
// cache is approximate in the same way a freshly offloaded cache is.
type Checkpoint struct {
	Pos    int // next token position
	Step   int // next decode step index
	GenLen int
	Layers int
	Hidden int

	Prompts [][]int
	Tokens  [][]int // generated so far, per sequence

	// Keys[layer][seq] and Values[layer][seq] are [tokens, hidden] tensors;
	// nil when the slot is empty.
	Keys   [][]*tensor.Tensor
	Values [][]*tensor.Tensor
}

// Validate reports structurally broken checkpoints.
func (ck *Checkpoint) Validate() error {
	if ck == nil {
		return fmt.Errorf("runtime: nil checkpoint")
	}
	if ck.Layers <= 0 || ck.Hidden <= 0 {
		return fmt.Errorf("runtime: checkpoint geometry %d layers x %d hidden must be positive", ck.Layers, ck.Hidden)
	}
	if len(ck.Prompts) == 0 || len(ck.Prompts) != len(ck.Tokens) {
		return fmt.Errorf("runtime: checkpoint has %d prompts and %d token rows", len(ck.Prompts), len(ck.Tokens))
	}
	if ck.Step < 1 || ck.GenLen < ck.Step {
		return fmt.Errorf("runtime: checkpoint step %d outside [1, genLen=%d]", ck.Step, ck.GenLen)
	}
	if len(ck.Keys) != ck.Layers || len(ck.Values) != ck.Layers {
		return fmt.Errorf("runtime: checkpoint KV has %d/%d layers, want %d", len(ck.Keys), len(ck.Values), ck.Layers)
	}
	for i, toks := range ck.Tokens {
		if len(toks) == 0 {
			return fmt.Errorf("runtime: checkpoint has no tokens for sequence %d", i)
		}
	}
	return nil
}

func cloneTokens(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i, s := range src {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// snapshot captures a driver session's state as the engine's last
// checkpoint: step is the next decode step and out the tokens generated so
// far. Staged KV is fetched through the usual retry machinery (a checkpoint
// read can hit the same transient faults as a load_cache); a final failure
// leaves the previous checkpoint in place rather than aborting generation.
func (e *Engine) snapshot(ctx context.Context, s *Session, prompts, out [][]int, step, genLen int) error {
	t0 := time.Now()
	defer func() { e.stats.addTask("checkpoint", time.Since(t0)) }()
	cfg := e.mod.Cfg
	ck := &Checkpoint{
		Pos:     s.pos[0],
		Step:    step,
		GenLen:  genLen,
		Layers:  cfg.Layers,
		Hidden:  cfg.Hidden,
		Prompts: cloneTokens(prompts),
		Tokens:  cloneTokens(out),
		Keys:    make([][]*tensor.Tensor, cfg.Layers),
		Values:  make([][]*tensor.Tensor, cfg.Layers),
	}
	for l := range cfg.Layers {
		ck.Keys[l] = make([]*tensor.Tensor, s.slots)
		ck.Values[l] = make([]*tensor.Tensor, s.slots)
	}
	for slot := range s.slots {
		if !s.slotOnHost(slot) {
			ks, vs, err := s.fetchSlot(ctx, "checkpoint_fetch", slot)
			if err != nil {
				return err
			}
			for l := range ks {
				ck.Keys[l][slot], ck.Values[l][slot] = ks[l], vs[l]
			}
			continue
		}
		for l := range cfg.Layers {
			if k := s.host.Keys(l, slot); k != nil {
				ck.Keys[l][slot], ck.Values[l][slot] = k.Clone(), s.host.Values(l, slot).Clone()
			}
		}
	}
	e.ckptMu.Lock()
	e.lastCkpt = ck
	e.ckptMu.Unlock()
	e.stats.addCheckpoint()
	return nil
}

// Resume continues generation from a checkpoint: the KV state is rebuilt
// under the engine's current policy (re-quantized if the policy says so) in
// a driver session, and decoding picks up at the checkpointed step. The
// returned tokens include everything generated before the checkpoint.
func (e *Engine) Resume(ctx context.Context, ck *Checkpoint, onStep func(step int, tokens []int) bool) ([][]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	cfg := e.mod.Cfg
	if ck.Layers != cfg.Layers || ck.Hidden != cfg.Hidden {
		return nil, fmt.Errorf("runtime: checkpoint geometry %dx%d does not match model %dx%d",
			ck.Layers, ck.Hidden, cfg.Layers, cfg.Hidden)
	}
	start := time.Now()
	s, err := e.newSession(len(ck.Prompts), true)
	if err != nil {
		return nil, err
	}
	for slot, toks := range ck.Tokens {
		if err := s.pinSlot(slot, false); err != nil {
			return nil, err
		}
		for l := range cfg.Layers {
			k, v := ck.Keys[l][slot], ck.Values[l][slot]
			if k == nil {
				continue
			}
			if s.kv == nil {
				s.host.SetKV(l, slot, k.Clone(), v.Clone())
			} else if _, err := s.kv.Append(l, slot, k, v); err != nil {
				return nil, err
			}
		}
		s.activate(slot, ck.Pos, toks[len(toks)-1])
	}
	return e.decode(ctx, s, ck.Prompts, cloneTokens(ck.Tokens), ck.Step, ck.GenLen, onStep, start)
}

// Checkpoint serialization: a little-endian binary format under the "LMGC"
// magic. Layout:
//
//	magic [4]byte, version uint32
//	pos, step, genLen, layers, hidden, batch uint32
//	per sequence: prompt len uint32 + tokens, generated len uint32 + tokens
//	per (layer, seq): present uint8; if present, rows uint32 then
//	  rows*hidden float32 keys and rows*hidden float32 values
const (
	ckptMagic   = "LMGC"
	ckptVersion = 1
)

// Save serializes the checkpoint in the "LMGC" binary format.
func (ck *Checkpoint) Save(w io.Writer) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	if _, err := w.Write([]byte(ckptMagic)); err != nil {
		return err
	}
	hdr := []uint32{ckptVersion, uint32(ck.Pos), uint32(ck.Step), uint32(ck.GenLen),
		uint32(ck.Layers), uint32(ck.Hidden), uint32(len(ck.Prompts))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for i := range ck.Prompts {
		if err := writeInts(w, ck.Prompts[i]); err != nil {
			return err
		}
		if err := writeInts(w, ck.Tokens[i]); err != nil {
			return err
		}
	}
	for l := 0; l < ck.Layers; l++ {
		for s := 0; s < len(ck.Prompts); s++ {
			k, v := ck.Keys[l][s], ck.Values[l][s]
			if k == nil {
				if err := binary.Write(w, binary.LittleEndian, uint8(0)); err != nil {
					return err
				}
				continue
			}
			if err := binary.Write(w, binary.LittleEndian, uint8(1)); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, uint32(k.Dim(0))); err != nil {
				return err
			}
			if err := writeFloats(w, k.Data()); err != nil {
				return err
			}
			if err := writeFloats(w, v.Data()); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by Save.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("runtime: reading checkpoint magic: %w", err)
	}
	if string(magic[:]) != ckptMagic {
		return nil, fmt.Errorf("runtime: bad checkpoint magic %q", magic[:])
	}
	var hdr [7]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("runtime: reading checkpoint header: %w", err)
		}
	}
	if hdr[0] != ckptVersion {
		return nil, fmt.Errorf("runtime: unsupported checkpoint version %d", hdr[0])
	}
	ck := &Checkpoint{
		Pos:    int(hdr[1]),
		Step:   int(hdr[2]),
		GenLen: int(hdr[3]),
		Layers: int(hdr[4]),
		Hidden: int(hdr[5]),
	}
	batch := int(hdr[6])
	if ck.Layers <= 0 || ck.Layers > 1<<20 || batch <= 0 || batch > 1<<20 || ck.Hidden <= 0 || ck.Hidden > 1<<24 {
		return nil, fmt.Errorf("runtime: implausible checkpoint geometry %d/%d/%d", ck.Layers, batch, ck.Hidden)
	}
	ck.Prompts = make([][]int, batch)
	ck.Tokens = make([][]int, batch)
	for i := 0; i < batch; i++ {
		var err error
		if ck.Prompts[i], err = readInts(r); err != nil {
			return nil, err
		}
		if ck.Tokens[i], err = readInts(r); err != nil {
			return nil, err
		}
	}
	ck.Keys = make([][]*tensor.Tensor, ck.Layers)
	ck.Values = make([][]*tensor.Tensor, ck.Layers)
	for l := 0; l < ck.Layers; l++ {
		ck.Keys[l] = make([]*tensor.Tensor, batch)
		ck.Values[l] = make([]*tensor.Tensor, batch)
		for s := 0; s < batch; s++ {
			var present uint8
			if err := binary.Read(r, binary.LittleEndian, &present); err != nil {
				return nil, fmt.Errorf("runtime: reading KV slot (%d, %d): %w", l, s, err)
			}
			if present == 0 {
				continue
			}
			var rows uint32
			if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
				return nil, err
			}
			if rows == 0 || rows > 1<<24 {
				return nil, fmt.Errorf("runtime: implausible KV row count %d", rows)
			}
			k, err := readFloats(r, int(rows), ck.Hidden)
			if err != nil {
				return nil, err
			}
			v, err := readFloats(r, int(rows), ck.Hidden)
			if err != nil {
				return nil, err
			}
			ck.Keys[l][s], ck.Values[l][s] = k, v
		}
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

func writeInts(w io.Writer, xs []int) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := binary.Write(w, binary.LittleEndian, int32(x)); err != nil {
			return err
		}
	}
	return nil
}

func readInts(r io.Reader) ([]int, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("runtime: implausible token count %d", n)
	}
	out := make([]int, n)
	for i := range out {
		var x int32
		if err := binary.Read(r, binary.LittleEndian, &x); err != nil {
			return nil, err
		}
		out[i] = int(x)
	}
	return out, nil
}

func writeFloats(w io.Writer, xs []float32) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, rows, cols int) (*tensor.Tensor, error) {
	buf := make([]byte, 4*rows*cols)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("runtime: reading KV payload: %w", err)
	}
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return tensor.FromSlice(data, rows, cols), nil
}
