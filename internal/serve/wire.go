package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/tensor"
)

// actMagic heads every activation frame on the stage wire.
const actMagic = "EDNACT1\x00"

// maxActRank bounds the tensor rank a frame may declare; nothing in the
// zoo exceeds rank 4, so 8 leaves headroom without letting a hostile frame
// allocate an absurd dims slice.
const maxActRank = 8

// EncodeActivation writes one activation frame: magic, the request seed,
// the tensor's rank and dims, then the payload as raw little-endian float32
// bits. Floats travel as their exact bit patterns — no text round trip — so
// a decoded activation is bit-identical to the encoded one, which is what
// lets the cluster determinism contract extend across the wire. The frame
// is assembled in one buffer and written with one call.
func EncodeActivation(w io.Writer, x *tensor.Tensor, seed uint64) error {
	shape := x.Shape()
	if len(shape) == 0 || len(shape) > maxActRank {
		return fmt.Errorf("serve: activation rank %d unsupported", len(shape))
	}
	n := len(x.Data)
	buf := make([]byte, len(actMagic)+8+4+4*len(shape)+4*n)
	off := copy(buf, actMagic)
	binary.LittleEndian.PutUint64(buf[off:], seed)
	off += 8
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(shape)))
	off += 4
	for _, d := range shape {
		binary.LittleEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	for _, v := range x.Data {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	_, err := w.Write(buf)
	return err
}

// DecodeActivation reads one activation frame, returning the tensor and
// the request seed it carries. maxElems bounds the element count a frame
// may declare (a server passes its stage's input size), so a hostile or
// corrupt length field fails instead of allocating unbounded memory; the
// bound is not optional — checked after every dimension, it is also what
// keeps the running product from overflowing.
func DecodeActivation(r io.Reader, maxElems int) (*tensor.Tensor, uint64, error) {
	head := make([]byte, len(actMagic)+8+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, 0, fmt.Errorf("serve: short activation header: %w", err)
	}
	if string(head[:len(actMagic)]) != actMagic {
		return nil, 0, fmt.Errorf("serve: bad activation magic %q", head[:len(actMagic)])
	}
	seed := binary.LittleEndian.Uint64(head[len(actMagic):])
	rank := int(binary.LittleEndian.Uint32(head[len(actMagic)+8:]))
	if rank == 0 || rank > maxActRank {
		return nil, 0, fmt.Errorf("serve: activation rank %d unsupported", rank)
	}
	dimBytes := make([]byte, 4*rank)
	if _, err := io.ReadFull(r, dimBytes); err != nil {
		return nil, 0, fmt.Errorf("serve: short activation dims: %w", err)
	}
	dims := make([]int, rank)
	n := 1
	for i := range dims {
		d := int(binary.LittleEndian.Uint32(dimBytes[4*i:]))
		if d <= 0 || d > maxElems {
			return nil, 0, fmt.Errorf("serve: activation dim %d out of range", d)
		}
		dims[i] = d
		n *= d
		if n > maxElems {
			return nil, 0, fmt.Errorf("serve: activation of %d elements exceeds limit %d", n, maxElems)
		}
	}
	payload := make([]byte, 4*n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("serve: short activation payload: %w", err)
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return tensor.FromSlice(data, dims...), seed, nil
}
