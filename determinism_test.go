package repro

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/cpufeat"
	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/errormodel"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The dimensions of TestDeterminismMatrix.
var (
	surfaces = []string{
		"ref",                  // serial Network.Forward on compute.Ref
		"batch",                // Network.ForwardBatch
		"fused",                // ForwardBatchFused, no hook
		"fused-IFMHook",        // ForwardBatchFused, copying corruption hook
		"fused-IFMHookInPlace", // ForwardBatchFused, in-place corruption hook
		"fused-subset",         // ForwardBatchFused, a hook that replaces some feature maps
		"serve",                // serve.Model.Predict in process
		"http",                 // serve over HTTP
		"cluster",              // a dispatcher over a two-stage loopback cluster
	}
	workerCounts = []int{1, 2, 4}
	batchSizes   = []int{1, 3, 16}
	precisions   = []quant.Precision{quant.FP32, quant.Int16, quant.Int8, quant.Int4}
	bers         = []float64{0, 1e-3} // clean, and a serving rate
	seedBases    = []uint64{1, 101}
)

// A cell runs 16 samples of one model through one surface: sample i is
// input i%8 at seed seed+i, so two samples with one input differ only in
// their error draws.
type cell struct {
	model, surface string
	workers, batch int
	vec            bool
	prec           quant.Precision
	ber            float64
	seed           uint64
}

// pinnedCRC holds the CRC-32 of a cell's 16 outputs, their bits in sample
// order, per (model, precision, BER, hook, seed): everything that may move
// the bits and nothing that may not. The values were recorded at the
// commit before this test was added.
var pinnedCRC = map[string]uint32{
	"ResNet101/FP32/0.001/eden/1": 0x3227b3b2, "ResNet101/FP32/0/eden/1": 0xd3ffedbe, "ResNet101/int16/0.001/subset/1": 0x5571f2b8,
	"ResNet101/int16/0/eden/1": 0x4b396e55, "ResNet101/int4/0.001/eden/101": 0xdf3b7686, "ResNet101/int4/0/eden/101": 0xd225c351,
	"ResNet101/int8/0/eden/101": 0xfe37b2bc, "ResNet101/int8/0/none/101": 0xe5f419af, "MobileNetV2/FP32/0.001/eden/101": 0x22068504,
	"MobileNetV2/FP32/0/eden/101": 0xf0dc1582, "MobileNetV2/int16/0.001/eden/101": 0xd56158fd, "MobileNetV2/int16/0/subset/101": 0xd1530cab,
	"MobileNetV2/int4/0.001/eden/1": 0x855f0eb4, "MobileNetV2/int4/0/eden/1": 0x633cd5f0, "MobileNetV2/int8/0.001/eden/1": 0xec73e5ba,
	"MobileNetV2/int8/0.001/none/1": 0x5f7e4c79, "VGG-16/FP32/0.001/eden/101": 0xbd6f71ab, "VGG-16/FP32/0/eden/101": 0x2fd7b7cf,
	"VGG-16/int16/0.001/eden/1": 0xf012874a, "VGG-16/int16/0/eden/1": 0x1d0dbc87, "VGG-16/int4/0/eden/101": 0xafcdd1b9,
	"VGG-16/int4/0/none/101": 0x5ec9a761, "VGG-16/int8/0.001/subset/1": 0xadf845ed, "VGG-16/int8/0/eden/1": 0x52fda816,
	"DenseNet201/FP32/0.001/eden/101": 0xffa86b47, "DenseNet201/FP32/0/eden/101": 0x4c1c5880, "DenseNet201/int16/0.001/eden/1": 0xa7b01b90,
	"DenseNet201/int16/0/eden/1": 0xfe212b30, "DenseNet201/int4/0/eden/101": 0xde1b03a2, "DenseNet201/int4/0/none/101": 0x0efed397,
	"DenseNet201/int8/0.001/subset/1": 0x898b3cd8, "DenseNet201/int8/0/eden/1": 0xc454188a, "SqueezeNet1.1/FP32/0.001/eden/1": 0x042831e1,
	"SqueezeNet1.1/FP32/0.001/none/1": 0x148b596e, "SqueezeNet1.1/int16/0.001/eden/1": 0x0b433aae, "SqueezeNet1.1/int16/0/eden/1": 0xf6383a26,
	"SqueezeNet1.1/int4/0.001/eden/101": 0x4304ea85, "SqueezeNet1.1/int4/0/subset/101": 0x0aed5d2a, "SqueezeNet1.1/int8/0.001/eden/101": 0x71cc9fbc,
	"SqueezeNet1.1/int8/0/eden/101": 0x9b335f08, "AlexNet/FP32/0/eden/101": 0xde76066a, "AlexNet/FP32/0/none/101": 0xde76066a,
	"AlexNet/int16/0.001/eden/101": 0x4d88412e, "AlexNet/int16/0/eden/101": 0x5000d388, "AlexNet/int4/0.001/subset/1": 0xe25e57ab,
	"AlexNet/int4/0/eden/1": 0x19b0e099, "AlexNet/int8/0.001/eden/1": 0xd850355e, "AlexNet/int8/0/eden/1": 0x731fa4da,
	"YOLO/FP32/0.001/subset/1": 0xc57e9017, "YOLO/FP32/0/eden/1": 0xa83a3980, "YOLO/int16/0/eden/101": 0x0baaccaf,
	"YOLO/int16/0/none/101": 0x2d92fe57, "YOLO/int4/0.001/eden/1": 0xa601ad11, "YOLO/int4/0/eden/1": 0xdebf5a4d,
	"YOLO/int8/0.001/eden/101": 0x3cd11c14, "YOLO/int8/0/eden/101": 0xe866ad1e, "YOLO-Tiny/FP32/0.001/eden/101": 0x84b6d1b1,
	"YOLO-Tiny/FP32/0/subset/101": 0xf7673597, "YOLO-Tiny/int16/0.001/eden/1": 0xbb203d94, "YOLO-Tiny/int16/0.001/none/1": 0x87e48a6e,
	"YOLO-Tiny/int4/0.001/eden/101": 0x3dc1f98e, "YOLO-Tiny/int4/0/eden/101": 0x090daf93, "YOLO-Tiny/int8/0.001/eden/1": 0xb2c1c1ca,
	"YOLO-Tiny/int8/0/eden/1": 0x93d60f2f, "LeNet/FP32/0.001/eden/1": 0xe5441ceb, "LeNet/FP32/0/eden/1": 0x5c678fa6,
	"LeNet/int16/0.001/subset/1": 0x313894a6, "LeNet/int16/0/eden/1": 0x66178152, "LeNet/int4/0.001/eden/101": 0xde387275,
	"LeNet/int4/0/eden/101": 0x478d6e0c, "LeNet/int8/0/eden/101": 0xb570122d, "LeNet/int8/0/none/101": 0x56910e41,
}

// TestDeterminismMatrix states the determinism contract once: an artifact,
// an input and a seed give the same output bits on every executor surface,
// at any worker count, batch shape, stage cut and vector path. Every zoo
// model, as dnn.BuildModel initializes it, is deployed at a uniform BER;
// each cell must reproduce its pinned CRC, and at a positive BER the eden
// hook must draw different errors at different seeds.
func TestDeterminismMatrix(t *testing.T) {
	for m, spec := range dnn.Zoo {
		net, err := dnn.BuildModel(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(0xD37)
		xs := make([]*tensor.Tensor, 8)
		for i := range xs {
			xs[i] = tensor.New(1, net.InC, net.InH, net.InW)
			xs[i].FillUniform(rng, -1, 1)
		}
		// Cell i runs surface i, and every other dimension steps through
		// its values with i, offset by m. Each model meets every value of
		// every dimension, every pair of values of two dimensions meets
		// somewhere in the zoo, and under -short, where model m runs only
		// cell m, the nine cells left still cover every value.
		for i, surface := range surfaces {
			if testing.Short() && i != m {
				continue
			}
			c := cell{
				model:   spec.Name,
				surface: surface,
				workers: workerCounts[(i+m/3)%3],
				batch:   batchSizes[(i/2+2*m+m/3)%3],
				vec:     (i/3+m+m/2)%2 == 0,
				prec:    precisions[(i+m/2)%4],
				ber:     bers[(i/3+m+m/3)%2],
				seed:    seedBases[(i/2+m+m/3)%2],
			}
			vec := map[bool]string{true: "vec", false: "scalar"}[c.vec]
			t.Run(fmt.Sprintf("%s/%s/w%d/b%d/%s/%v/ber%g/seed%d", c.model, c.surface, c.workers, c.batch, vec, c.prec, c.ber, c.seed), func(t *testing.T) {
				prevWorkers, prevBackend, restoreVec := parallel.Workers(), compute.Default(), cpufeat.SetVec(c.vec)
				t.Cleanup(func() {
					restoreVec()
					parallel.SetWorkers(prevWorkers)
					compute.SetDefault(prevBackend)
					if t.Failed() {
						t.Logf("replay: go test -run '^%s$' .", strings.ReplaceAll(regexp.QuoteMeta(t.Name()), "/", "$/^"))
					}
				})
				parallel.SetWorkers(c.workers)
				compute.SetDefault(compute.Gemm)
				dep := &eden.Deployment{ModelName: c.model, Prec: c.prec, ErrorModel: errormodel.Uniform(c.ber), ServingBER: c.ber, Net: net}
				outs := c.run(t, dep, xs)
				distinct := !slices.EqualFunc(outs[:8], outs[8:], bytes.Equal)
				// "eden" is the deployment's corruptor: copying, in place or in serve.
				hook := cmp.Or(map[string]string{"fused": "none", "fused-subset": "subset"}[c.surface], "eden")
				key := fmt.Sprintf("%s/%v/%g/%s/%d", c.model, c.prec, c.ber, hook, c.seed)
				if got, want := crc32.ChecksumIEEE(bytes.Join(outs, nil)), pinnedCRC[key]; got != want {
					t.Errorf("outputs CRC-32 %#08x, pinned %#08x for %s", got, want, key)
				}
				if hook == "eden" && c.ber > 0 && !distinct {
					t.Error("the 8 inputs served at two seeds each drew the same errors at both")
				}
			})
		}
	}
}

// run pushes the cell's 16 samples through its surface, batch samples at a
// time, and returns the bits of their outputs in sample order.
func (c cell) run(t *testing.T, dep *eden.Deployment, xs []*tensor.Tensor) [][]byte {
	input := func(i int) *tensor.Tensor { return xs[i%len(xs)].Clone() }
	seed := func(i int) uint64 { return c.seed + uint64(i) }
	outs := make([][]byte, 16)
	if predict := c.server(t, dep); predict != nil {
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := predict(input(i).Data, seed(i))
				if err != nil {
					t.Errorf("sample %d: %v", i, err)
				}
				outs[i] = bits(out)
			}()
		}
		wg.Wait()
		return outs
	}
	// The executor surfaces build what serve builds at registration: a
	// private network with the weights corrupted once, and a pool of
	// per-sample corruptor clones reset to each sample's seed.
	net, err := dep.CloneNet()
	if err != nil {
		t.Fatal(err)
	}
	corr := dep.NewCorruptor()
	corr.CorruptWeights(net)
	pool := eden.NewClonePool(corr)
	if c.surface == "ref" {
		compute.SetDefault(compute.Ref)
	}
	for lo := 0; lo < len(outs); lo += c.batch {
		batch := make([]*tensor.Tensor, min(c.batch, len(outs)-lo))
		for i := range batch {
			batch[i] = input(lo + i)
		}
		clones := make([]eden.Cloner, len(batch))
		opt := dnn.BatchOptions{
			HookFor: func(i int) dnn.IFMHook {
				clones[i] = pool.Get(seed(lo + i))
				if c.surface == "fused-IFMHookInPlace" {
					return clones[i].IFMHookInPlace()
				}
				return clones[i].IFMHook()
			},
			Done: func(i int) { pool.Put(clones[i]) },
		}
		var got []*tensor.Tensor
		switch c.surface {
		case "ref":
			for i, x := range batch {
				got = append(got, net.Forward(x, false, opt.HookFor(i)))
				opt.Done(i)
			}
		case "batch":
			got = net.ForwardBatch(batch, opt)
		case "fused":
			got = net.ForwardBatchFused(batch, dnn.BatchOptions{})
		case "fused-subset":
			got = net.ForwardBatchFused(batch, dnn.BatchOptions{HookFor: func(int) dnn.IFMHook { return halveEveryThird }})
		default:
			got = net.ForwardBatchFused(batch, opt)
		}
		for i, y := range got {
			outs[lo+i] = bits(y.Data)
		}
	}
	return outs
}

// halveEveryThird replaces the feature map of every third layer, from the
// second on, with a halved copy and leaves the others alone.
func halveEveryThird(li int, _ dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
	if li%3 == 1 {
		x = x.Clone()
		x.Scale(0.5)
	}
	return x
}

// server stands a serving surface up for the rest of the test, with batches
// of up to c.batch and room to queue all 16 samples, and returns its
// predict call; nil for the executor surfaces.
func (c cell) server(t *testing.T, dep *eden.Deployment) func(in []float32, seed uint64) ([]float32, error) {
	listen := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	start := func() *serve.Server {
		s := serve.New(serve.Config{MaxBatch: c.batch, QueueDepth: 16})
		t.Cleanup(s.Close)
		return s
	}
	var url string
	switch c.surface {
	case "serve", "http":
		s := start()
		m, err := s.Deploy(dep)
		if err != nil {
			t.Fatal(err)
		}
		if c.surface == "serve" {
			return func(in []float32, seed uint64) ([]float32, error) {
				res, err := m.Predict(context.Background(), in, seed)
				return res.Output, err
			}
		}
		url = listen(serve.NewHandler(s))
	case "cluster":
		cut := len(dep.Net.Layers) / 2
		stages, err := cluster.SliceAll(dep, cluster.Plan{Ranges: [][2]int{{0, cut}, {cut, len(dep.Net.Layers)}}})
		if err != nil {
			t.Fatal(err)
		}
		urls := make([][]string, len(stages))
		for k, st := range stages {
			s := start()
			if _, err := s.DeployStage(st); err != nil {
				t.Fatal(err)
			}
			urls[k] = []string{listen(serve.NewHandler(s))}
		}
		d, err := cluster.NewDispatcher(cluster.DispatcherConfig{Model: c.model, Stages: urls, HealthInterval: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		url = listen(d.Handler())
	default:
		return nil
	}
	return func(in []float32, seed uint64) ([]float32, error) {
		body, _ := json.Marshal(serve.PredictRequest{Input: in, Seed: seed}) // finite inputs always marshal
		resp, err := http.Post(url+"/v1/models/"+c.model+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var out serve.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d, decode error %v", resp.StatusCode, err)
		}
		return out.Output, nil
	}
}

// bits is v's float32 bit patterns, little-endian.
func bits(v []float32) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, v)
	return b.Bytes()
}
