package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Task distinguishes classification from detection models.
type Task int

// The two tasks in the paper's benchmark suite.
const (
	Classify Task = iota
	Detect
)

// ModelSpec names an architecture, how to build it, and its training recipe
// on the synthetic datasets.
type ModelSpec struct {
	Name   string
	Task   Task
	Build  func(rng *tensor.RNG) *Network
	Epochs int
	LR     float64
	Batch  int
	// MemoryIntensity and RandomAccessFrac feed sim.FromModel's
	// system-level DRAM traffic: the fraction of execution that is DRAM-traffic-bound and
	// the fraction of accesses that defeat the prefetcher (YOLO's NMS and
	// thresholding indexing, §7.1).
	MemoryIntensity  float64
	RandomAccessFrac float64
}

// Zoo lists the nine architectures of Table 1, as reduced-scale but
// topologically faithful variants trained on the synthetic datasets.
var Zoo = []ModelSpec{
	{Name: "ResNet101", Task: Classify, Build: buildResNetMini, Epochs: 14, LR: 0.01, Batch: 16, MemoryIntensity: 0.35, RandomAccessFrac: 0.03},
	{Name: "MobileNetV2", Task: Classify, Build: buildMobileNetV2Mini, Epochs: 16, LR: 0.01, Batch: 16, MemoryIntensity: 0.45, RandomAccessFrac: 0.08},
	{Name: "VGG-16", Task: Classify, Build: buildVGGMini, Epochs: 12, LR: 0.008, Batch: 16, MemoryIntensity: 0.55, RandomAccessFrac: 0.12},
	{Name: "DenseNet201", Task: Classify, Build: buildDenseNetMini, Epochs: 14, LR: 0.01, Batch: 16, MemoryIntensity: 0.50, RandomAccessFrac: 0.10},
	{Name: "SqueezeNet1.1", Task: Classify, Build: buildSqueezeNetMini, Epochs: 16, LR: 0.01, Batch: 16, MemoryIntensity: 0.30, RandomAccessFrac: 0.03},
	{Name: "AlexNet", Task: Classify, Build: buildAlexNetMini, Epochs: 12, LR: 0.008, Batch: 16, MemoryIntensity: 0.45, RandomAccessFrac: 0.05},
	{Name: "YOLO", Task: Detect, Build: buildYOLOMini, Epochs: 24, LR: 0.01, Batch: 16, MemoryIntensity: 0.60, RandomAccessFrac: 0.45},
	{Name: "YOLO-Tiny", Task: Detect, Build: buildYOLOTinyMini, Epochs: 24, LR: 0.01, Batch: 16, MemoryIntensity: 0.55, RandomAccessFrac: 0.35},
	{Name: "LeNet", Task: Classify, Build: buildLeNet, Epochs: 12, LR: 0.01, Batch: 16, MemoryIntensity: 0.30, RandomAccessFrac: 0.03},
}

// LookupSpec returns the spec for a model name.
func LookupSpec(name string) (ModelSpec, error) {
	for _, s := range Zoo {
		if s.Name == name {
			return s, nil
		}
	}
	return ModelSpec{}, fmt.Errorf("dnn: unknown model %q", name)
}

// BuildModel constructs a freshly initialized network by name with a
// deterministic seed.
func BuildModel(name string) (*Network, error) {
	spec, err := LookupSpec(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(tensor.NewRNG(0xEDE0 ^ hashName(name))), nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

const (
	inC = 3
	inH = 16
	inW = 16
	// numClasses matches dataset.DefaultPatterns.
	numClasses = 10
	// detection task geometry; matches dataset.DefaultBoxes.
	detGrid    = 4
	detClasses = 5
)

func buildLeNet(rng *tensor.RNG) *Network {
	return &Network{
		ModelName: "LeNet", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("conv1", inC, 6, 5, tensor.Conv2DParams{Padding: 2}, true, rng),
			&ReLU{LayerName: "relu1"},
			&MaxPool{LayerName: "pool1", K: 2, S: 2},
			NewConv("conv2", 6, 12, 5, tensor.Conv2DParams{Padding: 2}, true, rng),
			&ReLU{LayerName: "relu2"},
			&MaxPool{LayerName: "pool2", K: 2, S: 2},
			&Flatten{LayerName: "flatten"},
			NewFC("fc1", 12*4*4, 24, rng),
			&ReLU{LayerName: "relu3"},
			NewFC("fc2", 24, numClasses, rng),
		},
	}
}

func buildAlexNetMini(rng *tensor.RNG) *Network {
	return &Network{
		ModelName: "AlexNet", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("conv1", inC, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu1"},
			&MaxPool{LayerName: "pool1", K: 2, S: 2},
			NewConv("conv2", 16, 32, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu2"},
			&MaxPool{LayerName: "pool2", K: 2, S: 2},
			NewConv("conv3", 32, 32, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu3"},
			&Flatten{LayerName: "flatten"},
			NewFC("fc1", 32*4*4, 256, rng),
			&ReLU{LayerName: "relu4"},
			&Dropout{LayerName: "drop1", P: 0.2, RNG: tensor.NewRNG(0xD70)},
			NewFC("fc2", 256, 96, rng),
			&ReLU{LayerName: "relu5"},
			NewFC("fc3", 96, numClasses, rng),
		},
	}
}

func buildVGGMini(rng *tensor.RNG) *Network {
	return &Network{
		ModelName: "VGG-16", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("conv1_1", inC, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu1_1"},
			NewConv("conv1_2", 16, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu1_2"},
			&MaxPool{LayerName: "pool1", K: 2, S: 2},
			NewConv("conv2_1", 16, 32, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu2_1"},
			NewConv("conv2_2", 32, 32, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu2_2"},
			&MaxPool{LayerName: "pool2", K: 2, S: 2},
			NewConv("conv3_1", 32, 64, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu3_1"},
			&MaxPool{LayerName: "pool3", K: 2, S: 2},
			&Flatten{LayerName: "flatten"},
			NewFC("fc1", 64*2*2, 512, rng),
			&ReLU{LayerName: "relu_fc1"},
			NewFC("fc2", 512, 128, rng),
			&ReLU{LayerName: "relu_fc2"},
			NewFC("fc3", 128, numClasses, rng),
		},
	}
}

func buildResNetMini(rng *tensor.RNG) *Network {
	return &Network{
		ModelName: "ResNet101", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("stem_conv", inC, 16, 3, tensor.Conv2DParams{Padding: 1}, false, rng),
			NewBatchNorm("stem_bn", 16),
			&ReLU{LayerName: "stem_relu"},
			NewResidual("res1", 16, 16, 1, rng),
			NewResidual("res2", 16, 32, 2, rng),
			NewResidual("res3", 32, 64, 2, rng),
			NewResidual("res4", 64, 64, 1, rng),
			&GlobalAvgPool{LayerName: "gap"},
			&Flatten{LayerName: "flatten"},
			NewFC("fc", 64, numClasses, rng),
		},
	}
}

func buildDenseNetMini(rng *tensor.RNG) *Network {
	b1 := NewDenseBlock("dense1", 8, 8, 4, rng)
	b2 := NewDenseBlock("dense2", 20, 8, 4, rng)
	return &Network{
		ModelName: "DenseNet201", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("stem_conv", inC, 8, 3, tensor.Conv2DParams{Padding: 1}, false, rng),
			NewBatchNorm("stem_bn", 8),
			&ReLU{LayerName: "stem_relu"},
			b1, // 8 -> 40 channels
			NewConv("trans_conv", b1.OutChannels(), 20, 1, tensor.Conv2DParams{}, false, rng),
			&MaxPool{LayerName: "trans_pool", K: 2, S: 2},
			b2, // 20 -> 52 channels
			NewBatchNorm("final_bn", b2.OutChannels()),
			&ReLU{LayerName: "final_relu"},
			&GlobalAvgPool{LayerName: "gap"},
			&Flatten{LayerName: "flatten"},
			NewFC("fc", b2.OutChannels(), numClasses, rng),
		},
	}
}

func buildSqueezeNetMini(rng *tensor.RNG) *Network {
	return &Network{
		ModelName: "SqueezeNet1.1", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("stem_conv", inC, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "stem_relu"},
			&MaxPool{LayerName: "pool1", K: 2, S: 2},
			NewFire("fire1", 16, 4, 8, 8, rng),
			NewFire("fire2", 16, 4, 8, 8, rng),
			&MaxPool{LayerName: "pool2", K: 2, S: 2},
			NewFire("fire3", 16, 6, 12, 12, rng),
			NewConv("classifier_conv", 24, numClasses, 1, tensor.Conv2DParams{}, true, rng),
			&ReLU{LayerName: "classifier_relu"},
			&GlobalAvgPool{LayerName: "gap"},
			&Flatten{LayerName: "flatten"},
		},
	}
}

func buildMobileNetV2Mini(rng *tensor.RNG) *Network {
	return &Network{
		ModelName: "MobileNetV2", Classes: numClasses, InC: inC, InH: inH, InW: inW,
		Layers: []Layer{
			NewConv("stem_conv", inC, 8, 3, tensor.Conv2DParams{Padding: 1}, false, rng),
			NewBatchNorm("stem_bn", 8),
			&ReLU{LayerName: "stem_relu6", Ceil: 6},
			NewInvertedResidual("ir1", 8, 8, 1, 1, rng),
			NewInvertedResidual("ir2", 8, 16, 2, 4, rng),
			NewInvertedResidual("ir3", 16, 16, 1, 4, rng),
			NewInvertedResidual("ir4", 16, 24, 2, 4, rng),
			NewInvertedResidual("ir5", 24, 24, 1, 4, rng),
			&GlobalAvgPool{LayerName: "gap"},
			&Flatten{LayerName: "flatten"},
			NewFC("fc", 24, numClasses, rng),
		},
	}
}

func buildYOLOTinyMini(rng *tensor.RNG) *Network {
	head := &DetectionHead{Grid: detGrid, Classes: detClasses}
	return &Network{
		ModelName: "YOLO-Tiny", Classes: detClasses, InC: inC, InH: inH, InW: inW, Det: head,
		Layers: []Layer{
			NewConv("conv1", inC, 8, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu1"},
			&MaxPool{LayerName: "pool1", K: 2, S: 2},
			NewConv("conv2", 8, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu2"},
			&MaxPool{LayerName: "pool2", K: 2, S: 2},
			NewConv("conv3", 16, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu3"},
			&Flatten{LayerName: "flatten"},
			NewFC("fc1", 16*4*4, 96, rng),
			&ReLU{LayerName: "relu4"},
			NewFC("fc_out", 96, head.OutputSize(), rng),
		},
	}
}

func buildYOLOMini(rng *tensor.RNG) *Network {
	head := &DetectionHead{Grid: detGrid, Classes: detClasses}
	return &Network{
		ModelName: "YOLO", Classes: detClasses, InC: inC, InH: inH, InW: inW, Det: head,
		Layers: []Layer{
			NewConv("conv1", inC, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu1"},
			NewConv("conv2", 16, 16, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu2"},
			&MaxPool{LayerName: "pool1", K: 2, S: 2},
			NewConv("conv3", 16, 32, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu3"},
			&MaxPool{LayerName: "pool2", K: 2, S: 2},
			NewConv("conv4", 32, 48, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu4"},
			&Flatten{LayerName: "flatten"},
			NewFC("fc1", 48*4*4, 192, rng),
			&ReLU{LayerName: "relu5"},
			NewFC("fc_out", 192, head.OutputSize(), rng),
		},
	}
}
