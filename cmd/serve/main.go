// Command serve runs the batched inference-serving daemon. Models come in
// two ways:
//
//   - -deployment art.eden[,art2.eden]: serve pipeline-produced deployment
//     artifacts written by `cmd/eden -o` — the boosted network at the
//     characterized operating point(s), with no dataset or training access.
//   - -models NAME[,NAME]: load zoo models (training on first use, then
//     cached) and serve each at an explicit raw bit error rate.
//
// Either way, predictions go over HTTP/JSON through a continuous-batching
// scheduler: the next micro-batch forms while the current one computes and
// is handed over the moment compute is free, so batch occupancy tracks
// concurrent load and a lone request waits for no companions. Admission is
// bounded by -queue-depth per model: a full queue sheds with 429 plus a
// Retry-After estimate instead of stacking latency, and requests carrying
// "deadline_ms" are dropped with 504 if they expire while still queued.
// Every model runs on the gemm compute backend. The daemon exposes GET
// /v1/healthz for load-balancer probes and GET /metrics in the Prometheus
// text format, and drains gracefully on SIGINT/SIGTERM: the probe flips to
// 503, in-flight requests finish, then the listener closes.
//
// Beyond the default standalone role, -role splits one model across
// processes as a pipeline of layer-range stages (see internal/cluster):
//
//   - -role stage serves a contiguous layer range of one -deployment
//     artifact, accepting raw activation tensors on POST
//     /v1/models/{name}/infer (binary body) and applying corruption only
//     to its own layers.
//   - -role dispatcher fronts the stage fleet: it speaks the ordinary
//     /v1/models/{name}/predict JSON API and streams activations
//     stage-to-stage, load-balancing replicas within each stage and
//     dropping draining replicas out of rotation via their /v1/healthz.
//   - -plan K partitions the -deployment artifact into K stages with the
//     DP partitioner (balancing per-stage compute against boundary
//     transfer bytes), prints the launch flags for each stage, and exits.
//
// Cluster output is bit-identical to standalone serving for the same
// seed: stages pin the full-model DRAM bit layout, so every error draw
// lands on the same bit no matter how the model is cut.
//
//	go run ./cmd/eden -model LeNet -o lenet.eden
//	go run ./cmd/serve -deployment lenet.eden
//	go run ./cmd/serve -models LeNet,VGG-16 -precision int8 -ber 1e-4
//
//	# two-stage pipeline on one host
//	go run ./cmd/serve -plan 2 -deployment lenet.eden
//	go run ./cmd/serve -role stage -deployment lenet.eden -addr :8081 \
//	     -stage-layers 0:4 -stage-index 0 -stage-count 2
//	go run ./cmd/serve -role stage -deployment lenet.eden -addr :8082 \
//	     -stage-layers 4:8 -stage-index 1 -stage-count 2
//	go run ./cmd/serve -role dispatcher -model LeNet \
//	     -stages "http://localhost:8081;http://localhost:8082"
//
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/models
//	curl -s localhost:8080/v1/models/LeNet
//	curl -s -X POST localhost:8080/v1/models/LeNet/predict \
//	     -d '{"input":[...768 floats...],"seed":7}'
//	curl -s localhost:8080/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/eden"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/quant"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	role := flag.String("role", "standalone", "process role: standalone, stage, dispatcher")
	deployments := flag.String("deployment", "", "comma-separated deployment artifacts (from cmd/eden -o); exactly one for -role stage")
	models := flag.String("models", "", "comma-separated zoo model names to serve at -ber (default LeNet when no -deployment)")
	precision := flag.String("precision", "int8", "storage precision for -models: fp32, int16, int8, int4")
	ber := flag.Float64("ber", 0, "uniform bit error rate for -models (0 = reliable DRAM: no bit errors, only -precision's quantization)")
	maxBatch := flag.Int("max-batch", 16, "micro-batch size cap")
	queueDepth := flag.Int("queue-depth", 0, "per-model admission queue capacity; full queues shed with 429 (0 = 4x max-batch)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	drainNotice := flag.Duration("drain-notice", 3*time.Second,
		"how long /v1/healthz advertises 503 before the listener closes (set to ~2x the balancer's probe interval)")
	plan := flag.Int("plan", 0, "partition the -deployment artifact into this many stages, print launch flags, and exit")
	stageLayers := flag.String("stage-layers", "", "stage role: layer range lo:hi served by this process")
	stageIndex := flag.Int("stage-index", 0, "stage role: this stage's position in the pipeline")
	stageCount := flag.Int("stage-count", 0, "stage role: total number of stages in the pipeline")
	stagesFlag := flag.String("stages", "", `dispatcher role: stage replica URLs, ";" between stages, "," between replicas (e.g. "http://a:8081,http://b:8081;http://c:8082")`)
	model := flag.String("model", "", "dispatcher role: name of the model the stage fleet serves")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on shutdown")
	flag.Parse()
	parallel.SetWorkers(*workers)

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	fatal := profiling.Fatal(stopProf)

	if *plan > 0 {
		if err := printPlan(splitList(*deployments), *plan); err != nil {
			fatal(err)
		}
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
		return
	}

	var handler http.Handler
	var beginDrain, closeAll func()
	switch *role {
	case "standalone", "stage":
		prec, err := quant.ParsePrecision(*precision)
		if err != nil {
			fatal(err)
		}
		s := serve.New(serve.Config{MaxBatch: *maxBatch, QueueDepth: *queueDepth})
		if *role == "stage" {
			if err := deployStage(s, splitList(*deployments), *stageLayers, *stageIndex, *stageCount); err != nil {
				fatal(err)
			}
		} else {
			if *deployments == "" && *models == "" {
				*models = "LeNet"
			}
			if err := deployStandalone(s, splitList(*deployments), splitList(*models), prec, *ber); err != nil {
				fatal(err)
			}
		}
		handler, beginDrain, closeAll = serve.NewHandler(s), s.BeginDrain, s.Close
		log.Printf("serving on %s as %s (backend %s, max-batch %d, queue-depth %d, workers %d)",
			*addr, s.Role(), compute.Default().Name(), *maxBatch, s.Config().QueueDepth, parallel.Workers())
	case "dispatcher":
		stages, err := parseStages(*stagesFlag)
		if err != nil {
			fatal(err)
		}
		d, err := cluster.NewDispatcher(cluster.DispatcherConfig{Model: *model, Stages: stages})
		if err != nil {
			fatal(err)
		}
		handler, beginDrain, closeAll = d.Handler(), d.BeginDrain, d.Close
		log.Printf("dispatching %s on %s across %d stages", *model, *addr, len(stages))
	default:
		fatal(fmt.Errorf("unknown role %q (want standalone, stage, or dispatcher)", *role))
	}

	// Serve until SIGINT/SIGTERM, then drain in load-balancer order:
	// BeginDrain flips /v1/healthz to 503 and the listener stays open for
	// -drain-notice so the balancer's next probe can observe the flip and
	// stop routing here while traffic keeps being served; Shutdown then
	// closes the listener and waits for active requests (bounded by
	// -drain), and only after that does Close tear the schedulers down.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	hs := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		closeAll()
		fatal(err)
	case <-ctx.Done():
	}
	// Restore default signal handling right away: a second SIGINT/SIGTERM
	// during the drain must force-quit instead of being swallowed.
	stopSignals()
	log.Printf("shutdown signal received, advertising drain for %v, then draining for up to %v", *drainNotice, *drain)
	beginDrain()
	if *drainNotice > 0 {
		time.Sleep(*drainNotice)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	closeAll()
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}

// deployStandalone deploys every artifact, and a uniform deployment of
// every zoo model at the given raw BER, onto the server.
func deployStandalone(s *serve.Server, deployments, models []string, prec quant.Precision, ber float64) error {
	for _, path := range deployments {
		dep, err := eden.LoadDeploymentFile(path)
		if err != nil {
			return err
		}
		m, err := s.Deploy(dep)
		if err != nil {
			return err
		}
		info := m.Info()
		log.Printf("deployed %s from %s: %s on %s, tolerable BER %.2e, serving BER %.2e, ΔVDD %+.2fV, ΔtRCD %+.1fns, fine-grained %v",
			info.Name, path, info.Precision, info.Backend, dep.TolerableBER, dep.ServingBER, dep.DeltaVDD, dep.DeltaTRCD, dep.FineGrained)
	}
	for _, name := range models {
		log.Printf("loading %s (%s, BER %.2e)...", name, prec, ber)
		dep, err := eden.UniformDeployment(name, prec, ber)
		if err != nil {
			return err
		}
		m, err := s.Deploy(dep)
		if err != nil {
			return err
		}
		info := m.Info()
		log.Printf("deployed %s: %d params, %d weight bytes at %s on %s",
			info.Name, info.Params, info.WeightBytes, info.Precision, info.Backend)
	}
	return nil
}

// deployStage slices the single -deployment artifact to the configured
// layer range and deploys it as this process's pipeline stage.
func deployStage(s *serve.Server, deployments []string, layers string, index, count int) error {
	if len(deployments) != 1 {
		return fmt.Errorf("-role stage wants exactly one -deployment artifact, got %d", len(deployments))
	}
	lo, hi, err := parseRange(layers)
	if err != nil {
		return err
	}
	dep, err := eden.LoadDeploymentFile(deployments[0])
	if err != nil {
		return err
	}
	slice, err := dep.Slice(lo, hi, index, count)
	if err != nil {
		return err
	}
	m, err := s.DeployStage(slice)
	if err != nil {
		return err
	}
	info := m.Info()
	log.Printf("deployed %s %s: %s on %s, in %v out %v",
		info.Name, slice.Stage.StageLabel(), info.Precision, info.Backend, slice.Stage.InDims, slice.Stage.OutDims)
	return nil
}

// printPlan partitions the artifact into K stages and prints one launch
// line per stage, so an operator can paste the fleet into shells.
func printPlan(deployments []string, k int) error {
	if len(deployments) != 1 {
		return fmt.Errorf("-plan wants exactly one -deployment artifact, got %d", len(deployments))
	}
	dep, err := eden.LoadDeploymentFile(deployments[0])
	if err != nil {
		return err
	}
	plan, err := cluster.PlanFor(dep, cluster.PartitionConfig{Stages: k})
	if err != nil {
		return err
	}
	fmt.Printf("# %s: %d layers into %d stages, bottleneck %.3fms\n",
		dep.ModelName, len(dep.Net.Layers), k, plan.BottleneckNs/1e6)
	for i, r := range plan.Ranges {
		fmt.Printf("serve -role stage -deployment %s -addr :%d -stage-layers %d:%d -stage-index %d -stage-count %d  # %.3fms\n",
			deployments[0], 8081+i, r[0], r[1], i, k, plan.StageCostNs[i]/1e6)
	}
	urls := make([]string, k)
	for i := range urls {
		urls[i] = "http://localhost:" + strconv.Itoa(8081+i)
	}
	fmt.Printf("serve -role dispatcher -model %s -stages %q\n", dep.ModelName, strings.Join(urls, ";"))
	return nil
}

// parseRange parses a "lo:hi" layer range.
func parseRange(s string) (lo, hi int, err error) {
	lostr, histr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-stage-layers wants lo:hi, got %q", s)
	}
	if lo, err = strconv.Atoi(strings.TrimSpace(lostr)); err != nil {
		return 0, 0, fmt.Errorf("-stage-layers %q: %v", s, err)
	}
	if hi, err = strconv.Atoi(strings.TrimSpace(histr)); err != nil {
		return 0, 0, fmt.Errorf("-stage-layers %q: %v", s, err)
	}
	return lo, hi, nil
}

// parseStages splits the dispatcher's -stages flag: ";" separates pipeline
// stages, "," separates replicas within a stage.
func parseStages(s string) ([][]string, error) {
	var out [][]string
	for _, stage := range strings.Split(s, ";") {
		if stage = strings.TrimSpace(stage); stage == "" {
			continue
		}
		replicas := splitList(stage)
		if len(replicas) == 0 {
			continue
		}
		out = append(out, replicas)
	}
	if len(out) == 0 {
		return nil, errors.New("-role dispatcher wants -stages with at least one stage URL")
	}
	return out, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
