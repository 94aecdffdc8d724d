# Targets mirror .github/workflows/ci.yml so local runs and CI are the
# same invocations.

GO ?= go

.PHONY: build test fuzz-smoke mutants race bench bench-e2e cluster-smoke lint asm-check vuln loc golden golden-check pins

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order so order-dependent tests
# surface instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

# fuzz-smoke gives each fuzz target — the vector-vs-scalar ones (the quantize
# codecs, the ReLU clamp and 2×2 pooling kernels, gemm's tile micro-kernel,
# the dram read's hash-mask kernel),
# the activation-frame decoder, a trust boundary of the stage wire, the
# predict JSON body decoder, its number conversion (against strconv), and the
# deployment-artifact loader
# (LoadDeployment, through dnn's tensor section) — ten seconds of fresh
# inputs on top of its seed corpus (which `make test` already runs). The
# predict decoder's oversized-body seed is over 50 KB, so its new inputs get
# one second of minimizing, not the default minute.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQuantizeVecMatchesScalar -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz FuzzClampVecMatchesScalar -fuzztime 10s ./internal/compute
	$(GO) test -run '^$$' -fuzz FuzzTileVecMatchesScalar -fuzztime 10s ./internal/compute
	$(GO) test -run '^$$' -fuzz FuzzBelowMasksVecMatchesScalar -fuzztime 10s ./internal/dram
	$(GO) test -run '^$$' -fuzz FuzzDecodeActivation -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodePredict -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseFloat32 -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadDeployment -fuzztime 10s ./internal/eden

# mutants re-runs the mutation catalog, testdata/mutants.txt: entry by
# entry, the named test must pass on the tree, then fail with the entry's
# substitutions laid over its file through go test -overlay (in a temporary
# directory; the tree is never written), every run sharing the model cache,
# which keys each file on a training fingerprint. A check: lint entry has
# repro-lint flag the mutant in a copy of the module instead. A mutant that does not build counts as not caught. The catalog is how a test retired as redundant leaves proof
# that another test still catches what it caught; tier 1's TestMutantCatalog
# keeps every entry applicable. CI's bench job runs this target.
mutants:
	$(GO) test -tags mutants -count=1 -timeout 15m -run '^TestMutants$$' -v .

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

# golden regenerates the two report goldens in internal/experiments/testdata/golden
# from one empty model cache: system.txt, the §7 system-level reports (table3
# supplies their operating points), the device-in-the-loop figures fig7 and
# fig9 and the retraining and tolerance reports fig8, fig10 and curriculum;
# and fast.txt, the fast reports tier 1's TestFastReportsGolden compares.
# golden-check diffs a fresh run of both against them, and CI's bench job
# runs it. Training into an empty model cache means a model cached by an
# older commit cannot make the check pass. A diff in a golden is review
# surface, like .loc-ceiling.
GOLDEN = internal/experiments/testdata/golden
GOLDEN_RUN = cache=$$(mktemp -d); out=$$(mktemp -d); \
	EDEN_MODEL_CACHE=$$cache $(GO) run ./cmd/experiments table3 fig13 fig14 gpu accel fig7 fig8 fig9 fig10 curriculum > $$out/system.txt && \
	EDEN_MODEL_CACHE=$$cache $(GO) run ./cmd/experiments table1 table2 fig5 profiling policy pruning refresh margin > $$out/fast.txt; \
	st=$$?; rm -rf $$cache
golden:
	@$(GOLDEN_RUN); if [ $$st -eq 0 ]; then mv $$out/system.txt $$out/fast.txt $(GOLDEN)/; fi; rm -rf $$out; exit $$st
golden-check:
	@$(GOLDEN_RUN); if [ $$st -eq 0 ]; then diff -u $(GOLDEN)/system.txt $$out/system.txt && diff -u $(GOLDEN)/fast.txt $$out/fast.txt; st=$$?; fi; rm -rf $$out; exit $$st

# pins regenerates testdata/pins.txt, the manifest of every pinned bit, as
# golden regenerates its file: in each package whose tests import
# internal/pin it reruns the tests that read pins (TestDeterminismMatrix,
# and every test with Pinned in its name) with -count=1 -v, and writes the
# `pin <name> <value>` lines pin.Check logs, sorted. One name read with two
# values is a determinism break, not a choice: it fails the target and
# leaves the file alone, as does a run that panics or does not build. The
# tests' own failures do not fail it, since a moved pin fails its test until
# this target has run. CI's build-test job runs it and then diffs the file:
# a change that is not a bit epoch leaves it byte-identical.
PINS = testdata/pins.txt
pins:
	@pkgs=$$($(GO) list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | awk '{for (i = 2; i <= NF; i++) if ($$i == "repro/internal/pin") print $$1}'); \
	out=$$(mktemp); $(GO) test -count=1 -v -run 'Pinned|^TestDeterminismMatrix$$' $$pkgs > $$out 2>&1; \
	grep -E '^(ok|FAIL)[[:space:]]' $$out; \
	sed -n 's/^ *[^ ]*: pin \([^ ]*\) \([^ ]*\)$$/\1 \2/p' $$out | LC_ALL=C sort -u > $$out.pins; \
	twice=$$(cut -d' ' -f1 $$out.pins | uniq -d); broken=$$(grep -E '^panic: |\[(build|setup) failed\]' $$out); rm -f $$out; \
	if [ -n "$$twice" ]; then echo "pins read with two values:"; for n in $$twice; do grep "^$$n " $$out.pins; done; rm -f $$out.pins; exit 1; fi; \
	if [ -n "$$broken" ] || [ ! -s $$out.pins ]; then echo "the pinned tests did not run through: $$broken"; rm -f $$out.pins; exit 1; fi; \
	mv $$out.pins $(PINS)

# lint is the merge gate: asm-check, formatting, go vet, and the
# repository's one custom check, errreturn (cmd/repro-lint), which rejects
# silently discarded errors. Any finding fails the run; the one way to
# accept one is a visible `_ =` discard. The determinism
# contract is held by tests (the pins, make race, the AllocsPerRun pins),
# not by lint. The CI lint job runs exactly this target.
lint: asm-check
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/repro-lint ./...

# asm-check guards the promises the assembly kernels make. A fused
# multiply-add or -subtract (VFMADD*, VFMSUB*, VFNMADD*, VFNMSUB*) or a
# horizontal (cross-lane) op (VHADDP*, VHSUBP*, VDPP*) rounds differently
# from the scalar Go loops it stands in for, and an approximation —
# VRCP*/VRSQRT* in every width, packed or scalar, AVX-512's 14- and 28-bit
# forms included, and VEXP2* — is not the correctly rounded result they
# compute; any of them would silently break bit identity with the scalar
# specification, so those opcodes are banned from every .s file. And the pure-Go fallback other architectures
# get must keep building and vetting, which an amd64 host otherwise never
# checks. Every kernel writes XMM/YMM registers with VEX instructions only:
# a legacy-SSE write (MOVQ AX, X4) after a YMM write stalls on the SSE/AVX
# transition, so any non-V instruction whose destination (last operand) is
# an X register fails the check too.
asm-check:
	@bad=$$(grep -rnE --include='*.s' 'VFN?M(ADD|SUB)|VH(ADD|SUB)P[SD]|VDPP[SD]|VRCP|VRSQRT|VEXP2' internal/); \
	if [ -n "$$bad" ]; then echo "fused, horizontal or approximate vector op in assembly:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE --include='*.s' '(^|;)[[:space:]]*[A-UW-Z][A-Z0-9]*[[:space:]][^;/]*,[[:space:]]*X[0-9]+[[:space:]]*(;|\\|//|$$)' internal/); \
	if [ -n "$$bad" ]; then echo "non-VEX instruction writing an X register in assembly:"; echo "$$bad"; exit 1; fi
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/compute/ ./internal/quant/ ./internal/cpufeat/ ./internal/dram/

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
