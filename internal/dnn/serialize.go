package dnn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// NamedTensor pairs a tensor with a stable name for serialization.
type NamedTensor struct {
	Name string
	T    *tensor.Tensor
}

// Composite is implemented by layers that contain sublayers, letting
// serialization and diagnostics walk the full layer tree.
type Composite interface {
	Sublayers() []Layer
}

// Sublayers returns the sequential's children.
func (l *Sequential) Sublayers() []Layer { return l.Layers }

// Sublayers returns the residual block's children.
func (l *Residual) Sublayers() []Layer {
	if l.Project != nil {
		return []Layer{l.Body, l.Project}
	}
	return []Layer{l.Body}
}

// Sublayers returns the fire module's children.
func (l *Fire) Sublayers() []Layer { return []Layer{l.Squeeze, l.Expand1, l.Expand3} }

// Sublayers returns the dense block's children.
func (l *DenseBlock) Sublayers() []Layer { return l.Convs }

// Sublayers returns the inverted residual's children.
func (l *InvertedResidual) Sublayers() []Layer { return []Layer{l.Body} }

// walkLayers visits every layer in the tree, depth first.
func walkLayers(ls []Layer, visit func(Layer)) {
	for _, l := range ls {
		visit(l)
		if c, ok := l.(Composite); ok {
			walkLayers(c.Sublayers(), visit)
		}
	}
}

// StateTensors returns every tensor that defines the network's inference
// behaviour: all parameters plus batch-norm running statistics, in a
// deterministic order.
func (n *Network) StateTensors() []NamedTensor {
	var out []NamedTensor
	walkLayers(n.Layers, func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			out = append(out, NamedTensor{bn.LayerName + ".run_mean", bn.RunMean})
			out = append(out, NamedTensor{bn.LayerName + ".run_var", bn.RunVar})
		}
	})
	for _, p := range n.Params() {
		out = append(out, NamedTensor{p.Name, p.W})
	}
	return out
}

const modelMagic = "EDENMDL1"

// Save serializes the network's state tensors to w. Only values needed for
// inference are written; the architecture itself is reconstructed from the
// zoo by name on load.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(modelMagic); err != nil {
		return err
	}
	tensors := n.StateTensors()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(tensors))); err != nil {
		return err
	}
	for _, nt := range tensors {
		if err := writeString(bw, nt.Name); err != nil {
			return err
		}
		shape := nt.T.Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, nt.T.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load restores state tensors previously written by Save into a network of
// the same architecture. It fails if names or shapes do not line up.
func (n *Network) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return err
	}
	if string(magic) != modelMagic {
		return fmt.Errorf("dnn: bad model file magic %q", magic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	tensors := n.StateTensors()
	if int(count) != len(tensors) {
		return fmt.Errorf("dnn: model file has %d tensors, network has %d", count, len(tensors))
	}
	for _, nt := range tensors {
		name, err := readString(br)
		if err != nil {
			return err
		}
		if name != nt.Name {
			return fmt.Errorf("dnn: tensor order mismatch: file %q vs network %q", name, nt.Name)
		}
		var rank uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return err
		}
		shape := nt.T.Shape()
		if int(rank) != len(shape) {
			return fmt.Errorf("dnn: %s rank %d vs %d", name, rank, len(shape))
		}
		for _, want := range shape {
			var d uint32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != want {
				return fmt.Errorf("dnn: %s dimension %d vs %d", name, d, want)
			}
		}
		if err := binary.Read(br, binary.LittleEndian, nt.T.Data); err != nil {
			return err
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("dnn: unreasonable string length %d", n)
	}
	// n comes from the file: read through a limit, so that a short file
	// fails without first costing n bytes.
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return "", err
	}
	if len(buf) != int(n) {
		return "", io.ErrUnexpectedEOF
	}
	return string(buf), nil
}
