package dnn

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dataset"
)

// TrainedModel bundles a trained network with the datasets it was trained
// and validated on, plus its reliable-DRAM baseline metric (accuracy for
// classifiers, mAP for detectors).
type TrainedModel struct {
	Spec        ModelSpec
	Net         *Network
	TrainSet    *dataset.Dataset
	ValSet      *dataset.Dataset
	BoxTrainSet *dataset.BoxDataset
	BoxValSet   *dataset.BoxDataset
	BaselineAcc float64
}

// Metric evaluates the model's task metric under the given options.
func (m *TrainedModel) Metric(opt EvalOptions) float64 { return m.MetricOf(m.Net, opt) }

// MetricOf evaluates net — m's own network or a derivative sharing its
// architecture — on m's validation data: mAP for detectors, accuracy for
// classifiers.
func (m *TrainedModel) MetricOf(net *Network, opt EvalOptions) float64 {
	if m.Spec.Task == Detect {
		return net.MAP(m.BoxValSet, opt)
	}
	return net.Accuracy(m.ValSet, opt)
}

// Train trains net on m's training data with the trainer for m's task.
func (m *TrainedModel) Train(net *Network, opt TrainOptions) {
	if m.Spec.Task == Detect {
		TrainDetector(net, m.BoxTrainSet, opt)
	} else {
		TrainClassifier(net, m.TrainSet, opt)
	}
}

// CloneNet rebuilds the architecture and copies trained state into it, so
// callers can corrupt or retrain a copy without touching the cached model.
func (m *TrainedModel) CloneNet() *Network {
	return m.CloneNetFrom(m.Net)
}

// CloneNetFrom rebuilds the architecture and copies net's inference state
// into the fresh copy. net must share m's architecture (m.Net itself or a
// boosted/pruned derivative). Parallel evaluation sweeps clone the network
// per worker this way, because weight corruption mutates the network under
// test in place.
func (m *TrainedModel) CloneNetFrom(net *Network) *Network {
	fresh := mustBuild(m.Spec.Name)
	src := net.StateTensors()
	dst := fresh.StateTensors()
	for i := range src {
		copy(dst[i].T.Data, src[i].T.Data)
	}
	return fresh
}

func mustBuild(name string) *Network {
	n, err := BuildModel(name)
	if err != nil {
		panic(err)
	}
	return n
}

var (
	pretrainMu    sync.Mutex
	pretrainCache = map[string]*TrainedModel{}
)

// cacheDir returns the on-disk model cache directory. Training is
// deterministic, so a cache hit is bit-identical to retraining.
func cacheDir() string {
	if d := os.Getenv("EDEN_MODEL_CACHE"); d != "" {
		return d
	}
	return filepath.Join(os.TempDir(), "eden-model-cache")
}

// Pretrained returns a trained instance of the named zoo model, training it
// on first use and caching the result both in-process and on disk.
func Pretrained(name string) (*TrainedModel, error) {
	pretrainMu.Lock()
	defer pretrainMu.Unlock()
	if m, ok := pretrainCache[name]; ok {
		return m, nil
	}
	spec, err := LookupSpec(name)
	if err != nil {
		return nil, err
	}
	m := &TrainedModel{Spec: spec}
	if spec.Task == Detect {
		full := dataset.Boxes(dataset.DefaultBoxes())
		m.BoxTrainSet, m.BoxValSet = full.Split(0.8)
	} else {
		full := dataset.Patterns(dataset.DefaultPatterns())
		m.TrainSet, m.ValSet = full.Split(0.8)
	}
	m.Net = mustBuild(name)

	path := filepath.Join(cacheDir(), fmt.Sprintf("%s-%d.edenmdl", sanitize(name), m.Net.ParamCount()))
	if f, err := os.Open(path); err == nil {
		loadErr := m.Net.Load(f)
		_ = f.Close() // read-only file; Load already validated the bytes
		if loadErr == nil {
			m.BaselineAcc = m.Metric(EvalOptions{})
			pretrainCache[name] = m
			return m, nil
		}
		// Stale or corrupt cache: fall through to retraining.
		m.Net = mustBuild(name)
	}

	opt := TrainOptions{Epochs: spec.Epochs, Batch: spec.Batch, LR: spec.LR, Seed: hashName(name)}
	m.Train(m.Net, opt)
	m.BaselineAcc = m.Metric(EvalOptions{})

	if err := os.MkdirAll(cacheDir(), 0o755); err == nil {
		tmp := path + ".tmp"
		if f, err := os.Create(tmp); err == nil {
			saveErr := m.Net.Save(f)
			// A failed Close can mean unflushed bytes: renaming then would
			// publish a truncated cache entry that poisons the next run.
			if closeErr := f.Close(); saveErr == nil && closeErr == nil {
				if os.Rename(tmp, path) != nil {
					_ = os.Remove(tmp) // best-effort; the cache is optional
				}
			} else {
				_ = os.Remove(tmp) // best-effort; the cache is optional
			}
		}
	}
	pretrainCache[name] = m
	return m, nil
}

func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
