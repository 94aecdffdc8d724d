package dnn

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
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
	m, err := pretrain(name, cacheDir())
	if err == nil {
		pretrainCache[name] = m
	}
	return m, err
}

// pretrain builds the named model and loads its weights from the cache
// directory dir, or trains them and writes them there.
func pretrain(name, dir string) (*TrainedModel, error) {
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

	path := m.cacheFile(dir, m.fingerprint())
	if f, err := os.Open(path); err == nil {
		loadErr := m.Net.Load(f)
		_ = f.Close() // read-only file; Load already validated the bytes
		if loadErr == nil {
			m.BaselineAcc = m.Metric(EvalOptions{})
			return m, nil
		}
		// Stale or corrupt cache: fall through to retraining.
		m.Net = mustBuild(name)
	}

	m.Train(m.Net, TrainOptions{Epochs: spec.Epochs, Batch: spec.Batch, LR: spec.LR, Seed: hashName(name)})
	m.BaselineAcc = m.Metric(EvalOptions{})

	if err := os.MkdirAll(dir, 0o755); err == nil {
		// Each writer saves to a temp file of its own, so processes training
		// one model at once never rename a file another is still writing.
		if f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*"); err == nil {
			saveErr := m.Net.Save(f)
			// A failed Close can mean unflushed bytes: renaming then would
			// publish a truncated cache entry that poisons the next run.
			if closeErr := f.Close(); saveErr != nil || closeErr != nil || os.Rename(f.Name(), path) != nil {
				_ = os.Remove(f.Name()) // best-effort; the cache is optional
			} else {
				removeStale(dir, path, name)
			}
		}
	}
	return m, nil
}

// removeStale deletes the model's other weight files from dir once keep is
// written: files named as this cache names them, <name>-<params>-e<epochs>-
// <fingerprint>.edenmdl, or as it named them before it took the fingerprint,
// <name>-<params>.edenmdl. Only another training path writes those, so
// they would never load again. The match is an anchored pattern, not a
// glob: YOLO's sweep must not take YOLO-Tiny's weights.
func removeStale(dir, keep, name string) {
	stale := regexp.MustCompile(`^` + regexp.QuoteMeta(sanitize(name)) + `-\d+(-e\d+-[0-9a-f]{8})?\.edenmdl$`)
	entries, _ := os.ReadDir(dir) // best-effort, as the write is
	for _, e := range entries {
		if p := filepath.Join(dir, e.Name()); p != keep && stale.MatchString(e.Name()) {
			_ = os.Remove(p)
		}
	}
}

// cacheFile names m's weights in dir after what trained them: the model,
// its parameter count, spec.Epochs and a training fingerprint.
func (m *TrainedModel) cacheFile(dir string, fingerprint uint32) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d-e%d-%08x.edenmdl", sanitize(m.Spec.Name), m.Net.ParamCount(), m.Spec.Epochs, fingerprint))
}

// fingerprint is the CRC-32 of a fresh build's weights after Train runs one
// epoch from the model's seed over the first 32 training samples, at the
// spec's batch size and learning rate: two batches through the real data
// generation, initialization, shuffle, forward, loss, backward and SGD step.
// Keying the disk cache on it keeps weights another training path produced
// from being loaded. Blind spot: a change whose first moved bit comes after
// batch two gets past it (TestTrainingPinnedBothVecPaths still sees that).
func (m *TrainedModel) fingerprint() uint32 {
	probe := *m
	probe.Net = mustBuild(m.Spec.Name)
	if m.Spec.Task == Detect {
		ds := *m.BoxTrainSet
		ds.Samples = ds.Samples[:32]
		probe.BoxTrainSet = &ds
	} else {
		ds := *m.TrainSet
		ds.Samples = ds.Samples[:32]
		probe.TrainSet = &ds
	}
	probe.Train(probe.Net, TrainOptions{Epochs: 1, Batch: m.Spec.Batch, LR: m.Spec.LR, Seed: hashName(m.Spec.Name)})
	h := crc32.NewIEEE()
	_ = probe.Net.Save(h) // a hash's Write never fails
	return h.Sum32()
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
