# Builder entry points mirroring what CI runs (.github/workflows/ci.yml),
# so `make lint` locally means the same thing as the required lint job.

GO ?= go

.PHONY: all build test race lint lint-full fmt-check vet vulncheck mutants bench bench-smoke kernel-oracles daemon-smoke fleet-smoke overload-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = the offline blocking checks of the CI lint job: gofmt and go vet.
lint: fmt-check vet

# lint-full = everything the CI lint job enforces, including the
# blocking vulnerability scan (needs network for the scanner + DB).
lint-full: lint vulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Blocking, with the .govulncheck-ignore escape hatch for unfixable
# stdlib advisories; CI runs the same script. Needs network.
vulncheck:
	sh scripts/vulncheck.sh

# The CI test job's mutant step: every committed mutant
# (scripts/mutants/*.patch) is applied to a temporary copy of the tree,
# never to the working tree, and each test or vet check its header
# names must fail on it.
mutants:
	bash scripts/mutants/run.sh

# The CI bench-smoke job's first step: one iteration of every kernel and
# engine benchmark, then the simulator's hot path (a full OPT-175B
# schedule and the placement solve) from the root package.
bench:
	$(GO) test -bench . -benchtime=1x -benchmem -short -run '^$$' ./internal/parallel/... ./internal/tensor/... ./internal/quant/... ./internal/checkpoint/... ./internal/infer/...
	$(GO) test -bench 'Schedule|Placement' -benchtime=1x -benchmem -short -run '^$$' .

# The CI bench-smoke job's harness steps: the benchmark harness is its
# own module (outside `go test ./...`), so its tests run from bench/;
# then one short out-of-core pass, which exits non-zero if any token
# differs from the solo engine. `bash bench/run.sh` alone is the full
# benchmark (bench/README.md).
bench-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload ooc_latency --seed 1 --seconds 2 --trace 0

# The CI chaos job's oracle step: the fused 4-bit kernels against
# dequantize-then-matmul, the packed view against the dequantizer (fuzz
# seeds included), a stacked step against one-sequence steps and against
# itself at 1 / 2 / 3 / 8 workers, every kernel against its serial bits
# at those worker counts and from concurrent callers, the step's
# validate-first atomicity, the assembly leaf kernels against their
# Go reference bodies (every length and start offset, operands ending at
# a guard page, fuzz seeds), the tall GEMM's register tiles — 6x16 AVX
# and 6x32 AVX-512, a subtest each — against their Go twin and the SSE2
# two-row path (every depth to 9 and the engine's, strides that are not
# multiples of sixteen, a guard page, fuzz seeds), and MatMulInto with the tiles on against off at every row
# count mod 6 and column count mod 16 and 32, the AVX and AVX-512
# probes against /proc/cpuinfo, the in-register GEMV — its SSE2
# k-quad body and its AVX-512 product tables, a subtest each — against
# its decode-then-accumulate twin and a per-element oracle (one to nine
# rows and the engine's depths, chunks inside a row, every nibble in
# every lane, every finite half, a guard page, fuzz seeds), one to nine
# stacked activation rows against one call per row by raw bits (guard
# pages at both ends), Packed.Gemv against DecodeRange, and the two
# bodies against each other by raw bits, the packed logits' sixteen-table-row leaf against its Go twin and
# a per-element oracle (one to nine stacked rows, every nibble in every
# lane, every finite half, guard pages at both ends of the metadata,
# fuzz seeds) and the logits with it on and off against the dense
# oracle, the pinned token digests (as
# probed, with the AVX-512 bodies off and with every wide body off),
# GELU's integer
# float32 widening against the conversion and GELU against its
# one-expression oracle, the attention core against its per-position
# loop (the per-row path, and at prefill heights — every height mod 6 to
# 130, head widths 16 to 128, grouped-query heads, awkward values — the
# register tiles at each vector level the host has, at one to three
# workers, with q, out, every K/V row, the score rows and the gathered
# K/V panels ending at a guard page, fuzz seeds), RoPE's per-position angles against the per-head loop, and the
# vector transcendentals (GELU, SiLU, softmax's exponential) against the
# scalar expressions over a strided sweep of every float32, against
# their Go twins (every length and offset, a guard page, fuzz seeds) and
# their float64 exp and tanh against math.Exp's non-FMA body — all
# bit-for-bit, under the race detector.
# Run twice: at the host's GOMAXPROCS, and at 3 (an odd split, and on a
# two-core box more pool workers than cores; -count=1 because the test
# cache does not see GOMAXPROCS and would replay the first run). Then the
# transcendentals' sweep over all 2^32 float32 inputs, without the race
# detector (a few minutes on two cores; -exhaustive is that test's own
# flag). Then the token digests, GELU, attention and the transcendentals
# once more with the standard library's FMA paths switched off (math.Exp
# takes its non-FMA body, which the vector one must then equal in
# float64 too): a fleet of mixed CPUs must produce the same tokens, so a
# request that fails over to another host continues byte-identical.
KERNEL_ORACLES = $(GO) test -race -run 'Oracle|MatMulQ4|FuzzPackedView|FuzzDequantizeInto|StackedStep|LateValidation|KernelParallelism|KernelsConcurrent|Attend|Axpy4|Tile|MatMulWideShapes|CPUHasAVX|AxpyRows|Gemv|Decode4|PinnedTokenDigests|MatMulNaNInf|MatMulZeroTimesNaN|WidenExhaustive|RoPEMatchesPerHeadLoop|Transcendentals' ./internal/tensor/ ./internal/quant/ ./internal/infer/
kernel-oracles:
	$(KERNEL_ORACLES)
	GOMAXPROCS=3 $(KERNEL_ORACLES) -count=1
	$(GO) test -count=1 -timeout 30m -run 'TestTranscendentalsExhaustive' ./internal/tensor/ -exhaustive
	GODEBUG=cpu.fma=off $(GO) test -race -count=1 -run 'TestPinnedTokenDigests|TestGELUMatchesOracle|TestAttendMatchesRef|TestTranscendentals' ./internal/infer/ ./internal/tensor/

# The CI daemon-smoke job: full helmd lifecycle (signals, reload, drain)
# plus the server chaos test, both under the race detector.
daemon-smoke:
	$(GO) test -race -count=2 -run 'TestDaemonLifecycle|TestFlagErrors' ./cmd/helmd/
	$(GO) test -race -run TestChaosLifecycle ./internal/server/

# The CI fleet-smoke job: the 3-replica gateway chaos acceptance test
# (replica kill, hot reload, drain cycle mid-traffic; zero failed
# requests, byte-identical tokens, conserved fleet ledger) plus the
# signal-driven helmgw lifecycle, both under the race detector.
fleet-smoke:
	$(GO) test -race -count=2 -run TestFleetChaosLifecycle ./internal/gateway/
	$(GO) test -race -run 'TestGatewayLifecycle|TestParseWeights|TestBadFlagCombos' ./cmd/helmgw/

# The CI overload-smoke job: a 3-replica fleet offered roughly twice
# its lower-class token budgets over three sustained waves. Interactive
# traffic must never shed, shedding must land on batch before rag with
# honest Retry-After, admitted requests must return byte-identical
# tokens, and fleet + per-replica per-class ledgers must conserve —
# under the race detector. The verbose log carries the per-class
# ledger JSON that CI archives as the run artifact.
overload-smoke:
	@$(GO) test -race -count=2 -run 'TestOverloadGracefulDegradation|TestFleetBrownoutShedsAtEdge|TestBrownoutEntersShedsAndExits' -v ./internal/gateway/ ./internal/server/ > overload-smoke.log 2>&1; \
	status=$$?; cat overload-smoke.log; exit $$status
