# Targets mirror .github/workflows/ci.yml so local runs and CI are the
# same invocations.

GO ?= go

.PHONY: build test fuzz-smoke race bench bench-e2e cluster-smoke lint asm-check vuln loc

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order so order-dependent tests
# surface instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

# fuzz-smoke gives each fuzz target — the vector-vs-scalar ones (the quantize
# codecs, the ReLU clamp and 2×2 pooling kernels, gemm's tile micro-kernel),
# the activation-frame decoder, a trust boundary of the stage wire, the
# predict JSON body decoder, and the deployment-artifact loader
# (LoadDeployment, through dnn's tensor section) — ten seconds of fresh
# inputs on top of its seed corpus (which `make test` already runs). The
# predict decoder's oversized-body seed is over 50 KB, so its new inputs get
# one second of minimizing, not the default minute.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQuantizeVecMatchesScalar -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz FuzzClampVecMatchesScalar -fuzztime 10s ./internal/compute
	$(GO) test -run '^$$' -fuzz FuzzTileVecMatchesScalar -fuzztime 10s ./internal/compute
	$(GO) test -run '^$$' -fuzz FuzzDecodeActivation -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodePredict -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadDeployment -fuzztime 10s ./internal/eden

# race runs every package once with -short, then — without -short — the two
# packages where goroutines share a model (serve runs several fused passes
# over one network at once; cluster sits on top of it) five times over, since
# a race in a pass shows in a fraction of runs, and the two packages under
# those passes (the fused executor and its slabs, the corruptor clones) once:
# their full suites take too long under the detector to repeat.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 ./internal/serve ./internal/cluster
	$(GO) test -race ./internal/dnn ./internal/eden

# BenchmarkConv2DBackward (the training shapes of the zoo) runs on its own
# line, at one and at two CPUs: its fan-out is the one kernel whose balance
# across cores a single-CPU pass cannot see. So do BenchmarkVGGLayers and
# BenchmarkLeNetLayers, the serving shapes: that is ROADMAP item 4(a)'s
# one-against-two-CPU layer table.
bench:
	$(GO) test -run '^$$' -bench . -skip 'BenchmarkConv2DBackward|BenchmarkVGGLayers|BenchmarkLeNetLayers' -benchtime 1x -benchmem ./internal/compute/ ./internal/dnn/ ./internal/serve/ ./internal/softmc/ ./internal/errormodel/ ./internal/eden/
	$(GO) test -run '^$$' -bench BenchmarkConv2DBackward -benchtime 1x -cpu 1,2 ./internal/compute/
	$(GO) test -run '^$$' -bench 'BenchmarkVGGLayers|BenchmarkLeNetLayers' -benchtime 100x -cpu 1,2 ./internal/compute/

# bench-e2e is the repository's benchmark (cmd/bench, contract in
# BENCHMARK.json): four workloads, end-to-end metrics, every output
# bit-checked. Arguments pass through, e.g.
#   make bench-e2e ARGS='-trace 1 -out traced.json'
# for the per-layer ledger a perf change must locate its gain in.
bench-e2e:
	bash cmd/bench/run.sh $(ARGS)

# cluster-smoke stands up the sharded-serving fleet for real — two
# `serve -role stage` processes plus a `serve -role dispatcher`, launched
# from a freshly built binary — then round-trips predictions (bit-checked
# against in-process serving) and exercises graceful drain. CI runs this
# in the build-test job.
cluster-smoke:
	$(GO) build -o /tmp/repro-serve-smoke ./cmd/serve
	$(GO) run ./examples/cluster -serve-bin /tmp/repro-serve-smoke

# lint is the merge gate: formatting, go vet, and the repository's own
# analyzer suite (internal/lint via cmd/repro-lint) enforcing the
# determinism & parallel-safety contract. Any finding fails the run; the
# one way to accept one is a justified //lint:ignore on its line. The CI
# lint job runs exactly this target.
lint: asm-check
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/repro-lint ./...

# asm-check guards the promises the assembly kernels make. A fused
# multiply-add or a horizontal (cross-lane) op rounds differently from the
# scalar Go loops it stands in for, and an approximate reciprocal is not
# the correctly rounded divide they perform; any of them would silently
# break bit identity with the scalar specification, so those opcodes are
# banned from every .s file. And the pure-Go fallback other architectures
# get must keep building and vetting, which an amd64 host otherwise never
# checks.
asm-check:
	@bad=$$(grep -rnE --include='*.s' 'VFMADD|VFNMADD|VFMSUB|VDPPS|VHADDPS|VRCPPS|VRSQRTPS' internal/); \
	if [ -n "$$bad" ]; then echo "fused, horizontal or approximate vector op in assembly:"; echo "$$bad"; exit 1; fi
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/compute/ ./internal/quant/ ./internal/cpufeat/

# loc prints the two sizes ROADMAP tracks — non-test and test Go lines (the
# benchmark's build directory and testdata excluded) — and is a ratchet: it
# fails when the non-test count exceeds the one number in .loc-ceiling. A PR
# that must grow the tree raises that number in its own diff, where it is
# reviewed like code; a PR that shrinks the tree lowers it.
GOFILES = find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*'
loc:
	@nontest=$$($(GOFILES) -not -name '*_test.go' | xargs cat | wc -l); ceiling=$$(cat .loc-ceiling); \
	echo "non-test Go lines: $$nontest (ceiling $$ceiling)"; \
	echo "test Go lines:     $$($(GOFILES) -name '*_test.go' | xargs cat | wc -l)"; \
	if [ "$$nontest" -gt "$$ceiling" ]; then echo "non-test Go lines exceed .loc-ceiling"; exit 1; fi

# vuln scans the module against the Go vulnerability database. Uses an
# installed govulncheck when present, otherwise fetches it via go run
# (needs network; CI runs this non-blocking).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; \
	fi
