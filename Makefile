# Same entry points CI uses (.github/workflows/ci.yml); run `make ci` to
# reproduce the full pipeline locally.

GO ?= go

.PHONY: all build test race lease-stress lease-stress-names flake-census portable bench bench-smoke bench-json bench-baseline bench-gate bench-test bench-e2e loc surface surface-check orphans unused fuzz-seeds experiment-smoke metrics-smoke cluster-smoke aggtree-smoke cli-smoke profile fmt fmt-check vet ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The buffer-lease rules (DESIGN.md §6: a pushed frame's receive buffer is
# held until the sequencer has seen its tickets applied, released on the spot
# by every push that never reaches the store; a reply a relay has sent no
# longer aliases its pull cache) are concurrency properties: one green run
# proves little, so the three poisoning tests run ten times under the race
# detector, with the two tests that count the releases of a failed and of a
# void push (a lease that is never ended poisons nothing; it leaks). Any
# change to a site that ends a lease wants this green. The session layer the
# root and the relay share (DESIGN.md §6) is as much a concurrency property:
# the stale-release pin, the relay's watchdog and stalled-child tests, and the
# relay-child arms of the session tests run the same ten times. The lane arms
# of the poisoning tests (a leased body is a slot of the same-host arena) and
# their channel arms (a leased body is a pooled in-process frame) ride the
# first line, as do the lane push slots workers and relays compute their
# pushes in; the third line runs the lane's own lease and push-slot tests and
# the channel's contract test in internal/transport, the fourth the worker
# loop (pulled weights read in place, gradients computed in the push slot,
# and a group worker's rejoin, which closes the client the replica read),
# the fifth Backward into adopted gradients, and the last the crash/restart
# run on both socket carriers. Where a same-host pull reply is a reference
# into the server's generation region (DESIGN.md §4b), the first line also
# runs its lease tests: generations recycle while references are out, a full
# region falls back to copies and leaks no extent, a reader whose connection
# the server closed keeps the generation it reads, a killed reader's
# references pin nothing, and a relay keeps the upstream reply its children
# still reference. A relay stopped while a partial sums in its trunk's push
# slot drops the partial with the slot, under the lock every fold takes, and
# one stopped while it holds a window's first push on its receive lease ends
# that lease; the fold that sums a held push with the next pins its sum to a
# flat server's on all three carriers. A data server acknowledges a fragment
# before applying it (PROTOCOL.md §5b), so the first line also runs the tests
# that hold a fragment's push lease across that OK: an applier held inside
# its step, a windowed store, and a BSP round released while one of its
# fragments is still held. The
# lane line also holds that a peer whose exit cannot be watched (no pidfd) is
# offered no region. The guard's line runs its two experiment tests
# twenty times under the race detector: an ASP schedule decides how stale an
# honest push is when it lands, and a guard that judged a worker's cold first
# push against converged gradients flagged an honest worker in loaded runs.
# The next two lines run the fp16 lane paths twenty times: a packed push
# encoded in the push slot writes no payload byte, a packed pull is a
# reference whose extent stays pinned while it is read, both copy on TCP and
# for a peer without a pidfd, and a server stopped with a packed reference
# out lets go of every packed generation in its region. The line after them
# runs a tree run whose crashed child's Leave the relay forwards after the
# child's worker returned, twenty times under the race detector: the trainer
# reads its result only once the root has settled every worker slot. The last
# two lines run the group's failover tests ten times under the race detector,
# one line per package: the coordinator promotes a standby when its owner's
# announce stream ends, a reaction to the end of a stream that races the
# run's own end, which is a concurrency property as much as a lease is.
lease-stress:
	$(GO) test -race -count=10 -run 'TestDenseBufferLeasesSurvivePoisoning|TestClusterPullLeaseOutlivesReplacedLink|TestCodecBufferReuseSurvivesPoisoning|TestRelaySentReplyOutlivesSupersededPullCache|TestPushErrorStillReleasesPeers|TestTrunkSpeaksOnlyForSlotsItRoutes|TestStaleGatedReleaseNeverReachesSuccessorSession|TestRelayWatchdogFlushesStalledSiblingsPartial|TestRelayStalledChildDoesNotDelaySiblingOK|TestPushSlotWaitsForTheReceiversRelease|TestInProcessScheduleRecyclesGenerations|TestRegionFullFallsBackToCopy|TestLeaseExpiredReaderKeepsItsGeneration|TestDeadReaderPinsNothing|TestRelaySentReferenceOutlivesSupersededPullCache|TestRelayStopDropsTheTrunkSlotPartial|TestRelayStopReleasesTheHeldFirstPush|TestRelayFoldBitIdenticalToCopyThenAdd|TestDataServerOKPrecedesApplyAndPullWaitsForIt|TestDataServerWindowedPullIsAnswered|TestGroupBSPReleaseReadsEveryTicketedFragment' ./internal/ps/
	$(GO) test -race -count=10 -run '^(TestDuplicateRegistrationSupersedesOldSession|TestStaleSessionIsToldToRejoin|TestLeaseExpiryEvictsSilentWorker|TestHeartbeatsKeepSlowWorkerAlive|TestDisconnectReleasesBarrierPeers)$$/relay-child' ./internal/ps/
	$(GO) test -race -count=10 -run 'TestLane|TestLoopbackDialUpgradesToLane|TestReleaseHookSeesBodyBeforeReuse|TestPipeKeepsTheConnContract|TestForeignPeersStayOnTCP|TestListenerCloseFreesLaneName' ./internal/transport/
	$(GO) test -race -count=10 -run 'TestWorkerLoopLeasesSurvivePoisoning|TestWorkerLoopRejoinsGroup' ./internal/trainer/
	$(GO) test -race -count=10 -run 'TestAdoptGradsBackwardIsBitIdentical' ./internal/nn/
	$(GO) test -race -count=10 -run 'TestTCPWorkerCrashRejoinAndServerRestart' .
	$(GO) test -race -count=20 -run '^TestGuard(DetectionRates|RejectionsCountedOnce)$$' ./internal/experiment/
	$(GO) test -race -count=20 -run '^(TestLanePackedPushSlotWritesNoPayload|TestLanePackedReferenceFrames|TestPackedPathsCopyOnTCP|TestLanePeerWithoutPidfdGetsNoRegion)$$' ./internal/transport/
	$(GO) test -race -count=20 -run '^TestServerStopEvictsPackedGenerations$$' ./internal/ps/
	$(GO) test -race -count=20 -run '^TestTreeChildLeavesCountOnlyUnfinishedChildren$$' ./internal/trainer/
	$(GO) test -race -count=10 -run '^(TestClusterClientRecoversThroughPromotion|TestBackupEndsAtItsPrimarysFinalVersion|TestStandbyCutOffFromALiveOwnerIsNotPromoted)$$' ./internal/ps/
	$(GO) test -race -count=10 -run '^TestRestartedMemberStandsByThePromotedOwner$$' .

# The -run lists above name tests verbatim, and a name that matches no test
# (the test was renamed or deleted) runs nothing and passes. This fails when
# any top-level name or prefix in them matches no test of its package
# (go test -list; scripts/run_names.sh).
lease-stress-names:
	GO='$(GO)' MAKE='$(MAKE)' bash scripts/run_names.sh lease-stress

# How often each tier-1 test fails, as a record rather than by accident: the
# whole suite at -count=CENSUS_N (default 20) with -json, once alone and once
# beside one CPU-bound sibling process the script starts and stops itself,
# each test's runs and failures per arm written to CENSUS_OUT
# (scripts/flake_census.sh). It changes no machine setting and is not a CI
# step: at the default count it takes about half an hour on 2 CPUs.
CENSUS_N ?= 20
CENSUS_OUT ?= FLAKE_CENSUS.json
flake-census:
	GO='$(GO)' bash scripts/flake_census.sh $(CENSUS_N) $(CENSUS_OUT)

# The portable kernel paths (the Go loops of internal/tensor, bound where there
# is no AVX2+FMA — internal/optimizer's step runs on them — and of
# internal/compress, bound where there is no F16C+AVX2)
# on every run, not only on machines without those: the purego tag tests them
# here — the codec kernels against the same bit-for-bit reference and the same
# end-to-end hash (internal/ps) the assembly is held to, the worker loop
# against the parameter hashes recorded for the Go loops — and an arm64
# cross-build compiles and vets what a non-amd64 target gets. The noavx512 tag
# does the same for the AVX2 panels on a machine that binds the AVX-512 ones:
# the tensor tests, the layer hash pins, the end-to-end codec hash and the
# worker-loop hash pins run on them too, and so does the fp16 encode from a
# gradient's factors, whose fused pass only the AVX-512 binding has (the
# others compute the product, then encode). Both tags run internal/nn's TestDirectConvMatchesIm2col, which
# holds Conv2D's one path to patch matrices and the dense products at every
# kernel, stride and pad it covers, on every binding. purego and noavx512 are
# for this step, not tuning knobs. The darwin build
# compiles the stub every non-Linux target gets in place of the same-host
# lane (internal/transport/lane_other.go), so it cannot rot.
portable:
	$(GO) test -tags purego ./internal/tensor/ ./internal/nn/ ./internal/optimizer/ ./internal/compress/
	$(GO) test -tags purego -run 'TestCodecKernelsEndToEndPin' ./internal/ps/
	$(GO) test -tags purego -run 'TestWorkerLoopLeasesSurvivePoisoning' ./internal/trainer/
	$(GO) test -tags noavx512 ./internal/cpu/ ./internal/tensor/ ./internal/nn/
	$(GO) test -tags noavx512 -run 'TestF16FeedbackFromFactorsBitIdentical' ./internal/compress/
	$(GO) test -tags noavx512 -run 'TestCodecKernelsEndToEndPin' ./internal/ps/
	$(GO) test -tags noavx512 -run 'TestWorkerLoopLeasesSurvivePoisoning' ./internal/trainer/
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cpu/ ./internal/tensor/ ./internal/compress/
	GOOS=darwin $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/transport/

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# One iteration per benchmark: proves the benchmarks still run without
# measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Full benchmark pass converted to BENCH_local.json (the same pipeline CI
# uses to accumulate BENCH_*.json trajectories as artifacts). Plain
# redirection rather than tee: make's sh has no pipefail, and a benchmark
# failure must stop the recipe instead of emitting a partial JSON.
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem ./... > bench-local.txt
	$(GO) run ./cmd/benchjson -in bench-local.txt -out BENCH_local.json

# The bench-gate allowlist, shared by bench-baseline (which must record the
# pinned benchmarks at the same -benchtime the gate re-measures them at —
# 10 iterations of a 16-goroutine benchmark is setup noise, not a number
# you can hold to 25%). Only benchmarks that repeat within a few percent on
# an otherwise-busy machine belong here; jittery paths (e.g. BenchmarkDeltaPull,
# the gated replica round trip, whose one-frame, zero-byte reply is pinned by
# TestDeltaPullSkipsUnchangedShardBytes and TestRelayUpstreamPullsAreGated
# instead) stay informational.
# BenchmarkCompress/fp16/scale=1e-05 is the fp16 error-feedback encode at
# the magnitude a converged model pushes (fp16 subnormals): a converter with
# a magnitude-dependent slow path is 2-4x slower there and trips the pin.
# BenchmarkTCPDensePushPull1MB is the dense wire path end to end (1 MB push +
# 1 MB pull over loopback, held on TCP — the cross-host carrier): a copy or a
# per-frame allocation coming back costs it 20-50%.
# BenchmarkLaneDensePushPull1MB is the same round trip as same-host peers get
# it (bodies through the shared arena): a payload falling back onto the
# socket, or a second copy, costs it as much. BenchmarkLaneFP16PushPull1MB is
# that round trip under fp16 on push and pull (flat-comm-fp16's codec): the
# push encoded in the push slot and stepped from its payload, the pull a
# reference to the packed generation; a copy or a decode coming back costs it
# 15% or more.
# BenchmarkRelayFoldLane1MB is one window of tree-comm's fanout-2 relay on the
# lane (two 1 MB dense pushes folded, flushed and released): the first push
# copied again instead of held, or the one-pass sum split back into a copy and
# an add, costs it 30% or more.
# BenchmarkPackPullPath/fp16 and BenchmarkDecompress/fp16 are the other three
# codec passes of a compressed iteration (server pack, and the decode both ends
# run), at all three magnitudes.
# BenchmarkMatMul128 runs as BenchmarkMatMul128/kernel=avx512, /kernel=avx2 or
# /kernel=go, and the three codec pins as .../kernel=f16c or /kernel=go,
# whichever kernel the machine binds; the baseline holds every one
# (bench-baseline appends a -tags noavx512 and a -tags purego run) and the pin,
# a prefix, gates the one produced.
# BenchmarkMatMulConvShapes/16x144x1024 is the widest conv product of ResNet-8
# in its three kinds (forward, dW, dcol: the tile and dot panels, reading a
# dense operand through the table of its rows, each under its own name) and
# BenchmarkResNet8IterationBatch8 one whole forward+backward at the end-to-end
# benchmark's flat-compute shape, both named by kernel the same way.
# BenchmarkDirectConvShapes/16x16x32x32 is the widest of the stride-1 3×3
# layers, which run directly on the bordered image (no patch matrix): its
# forward, dW and dX, the same two panels reading the image's shifted views
# through an offset table, each under its own name, named by kernel the same
# way.
# BenchmarkFusedStepMomentumBatch4 and BenchmarkFusedStepPlain262k are the
# store's optimizer step (a coalesced batch of four with momentum over 64k
# values; one push of plain SGD over the wide MLP's 262 144, flat-comm's step;
# BenchmarkFusedStepF16Plain262k is that push as an fp16 payload, widened in
# the step, flat-comm-fp16's)
# and BenchmarkWorkerIteration one whole iteration of the worker loop at that
# shape over the in-process carrier (pull, install, forward, backward, push,
# apply, release): a payload-sized copy coming back into the loop, or the step
# falling off its kernel, costs either 25% or more. All three are named by
# kernel too.
# The pins whose names carry the kernel binding: bench-baseline measures these
# again under -tags noavx512 and -tags purego.
BENCH_GATE_KERNEL_PATTERN = BenchmarkMatMul128|BenchmarkMatMulConvShapes/16x144x1024|BenchmarkDirectConvShapes/16x16x32x32|BenchmarkResNet8IterationBatch8|BenchmarkFusedStepMomentumBatch4|BenchmarkFusedStepPlain262k|BenchmarkFusedStepF16Plain262k|BenchmarkWorkerIteration|BenchmarkCompress/fp16/scale=1e-05|BenchmarkPackPullPath/fp16|BenchmarkDecompress/fp16
BENCH_GATE_PATTERN = BenchmarkStoreConcurrentPushPull/sharded|BenchmarkStoreConcurrentPull/sharded|BenchmarkStoreApplySteadyState|BenchmarkClusterPushPull|BenchmarkAggTreeIngress|$(BENCH_GATE_KERNEL_PATTERN)|BenchmarkTCPDensePushPull1MB|BenchmarkLaneDensePushPull1MB|BenchmarkLaneFP16PushPull1MB|BenchmarkRelayFoldLane1MB
BENCH_GATE_PINS = BenchmarkStoreConcurrentPushPull/sharded,BenchmarkStoreConcurrentPull/sharded,BenchmarkStoreApplySteadyState,BenchmarkMatMul128,BenchmarkMatMulConvShapes/16x144x1024,BenchmarkDirectConvShapes/16x16x32x32,BenchmarkResNet8IterationBatch8,BenchmarkFusedStepMomentumBatch4,BenchmarkFusedStepPlain262k,BenchmarkWorkerIteration,BenchmarkClusterPushPull/servers=1,BenchmarkClusterPushPull/servers=2,BenchmarkAggTreeIngress/fanout=1,BenchmarkAggTreeIngress/fanout=4,BenchmarkCompress/fp16/scale=1e-05,BenchmarkPackPullPath/fp16,BenchmarkDecompress/fp16,BenchmarkTCPDensePushPull1MB,BenchmarkLaneDensePushPull1MB,BenchmarkLaneFP16PushPull1MB,BenchmarkFusedStepF16Plain262k,BenchmarkRelayFoldLane1MB
BENCH_GATE_TIME = 200ms
# Packages holding the pinned benchmarks: the store pipeline, the raw
# compute kernels (matmul panels, fused optimizer step) it is built on, the
# layers over them, the codec kernels, and the worker loop.
BENCH_GATE_PKGS = ./internal/ps/ ./internal/tensor/ ./internal/nn/ ./internal/optimizer/ ./internal/compress/ ./internal/trainer/
# Those among them with a kernel-named pin.
BENCH_GATE_KERNEL_PKGS = ./internal/tensor/ ./internal/nn/ ./internal/optimizer/ ./internal/compress/ ./internal/trainer/

# Refresh the committed benchmark baseline (BENCH_baseline.json at the repo
# root). A short fixed -benchtime keeps the full suite to a couple of
# minutes; the baseline is a trajectory record that CI compares smoke
# numbers against informationally, not a precision measurement. The pinned
# gate benchmarks are then re-measured at the gate's own benchtime and
# appended — benchjson keeps the last entry per name, so the recorded numbers
# bench-gate prints beside its medians are like-for-like. The last two runs
# record the kernel-named pins under the AVX2 panels (kernel=avx2, on a
# machine that binds the AVX-512 ones) and under the Go loops (kernel=go), so
# that column has a like-for-like number on a runner without AVX-512, AVX2 or
# F16C. The
# SSP and ASP policy steps cost about a hundred nanoseconds, so ten iterations
# of them measure set-up, not the step: they are re-measured at 1s. The
# text starts with the commit it measures (HEAD, so run it on a clean tree),
# which benchjson records in the document: the one bench-gate builds and
# measures against.
bench-baseline:
	echo "commit: $$(git rev-parse HEAD)" > bench-baseline.txt
	$(GO) test -run '^$$' -bench=. -benchtime=10x -benchmem ./... >> bench-baseline.txt
	$(GO) test -run '^$$' -bench '^Benchmark(SSP|ASP)OnPush$$' -benchtime=1s -benchmem ./internal/core/ >> bench-baseline.txt
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -benchtime=$(BENCH_GATE_TIME) $(BENCH_GATE_PKGS) >> bench-baseline.txt
	$(GO) test -tags noavx512 -run '^$$' -bench '$(BENCH_GATE_KERNEL_PATTERN)' -benchtime=$(BENCH_GATE_TIME) $(BENCH_GATE_KERNEL_PKGS) >> bench-baseline.txt
	$(GO) test -tags purego -run '^$$' -bench '$(BENCH_GATE_KERNEL_PATTERN)' -benchtime=$(BENCH_GATE_TIME) $(BENCH_GATE_KERNEL_PKGS) >> bench-baseline.txt
	$(GO) run ./cmd/benchjson -in bench-baseline.txt -out BENCH_baseline.json

# Pinned-benchmark regression gate (scripts/bench_gate.sh): build the test
# binaries of BENCH_GATE_PKGS from the commit BENCH_baseline.json names
# ("commit", exported with git archive) and from the working tree, run the
# pins of both alternately for ten rounds at BENCH_GATE_TIME with -benchmem,
# and fail when any pin's median ns/op over the working tree's rounds is more
# than 25% above its median over the baseline commit's, or its median
# allocs/op is above the highest the baseline commit read in any round (B/op
# stays informational). Both trees run on the
# same machine in the same minutes, so the gate is green at the baseline
# commit itself; the ns/op recorded in BENCH_baseline.json are printed beside,
# for information. The baseline commit moves only with a deliberate refresh
# of BENCH_baseline.json, never to the parent of each change, so slowdowns
# cannot pass one change at a time. Everything outside the allowlist stays
# informational (see bench-json / the CI baseline step); the pins are chosen
# to be long-running and one-sided.
bench-gate:
	GO='$(GO)' PKGS='$(BENCH_GATE_PKGS)' PATTERN='$(BENCH_GATE_PATTERN)' PINS='$(BENCH_GATE_PINS)' \
		TIME='$(BENCH_GATE_TIME)' bash scripts/bench_gate.sh

# The end-to-end benchmark (bench/, a Go module of its own that go build ./...
# and go test ./... at the root do not see). bench-test builds it against the
# product and runs its fast tests, so a product change that breaks the
# benchmark's build fails CI instead of the next measurement; bench-e2e is
# the measurement itself (six workloads over loopback TCP, about two
# minutes; see bench/README.md).
bench-test:
	$(GO) test -C bench ./...

bench-e2e:
	bash bench/run.sh -seed 1

# Net size of the product, the number ROADMAP asks every PR to report:
# non-blank, non-comment lines of non-test Go outside bench/ (block comments
# are rare enough here that only // lines are discounted), then the same
# count for the assembly (*.s, whose comments are // lines too), labelled.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 \
		| xargs -0 awk '/^[ \t]*$$/ {next} /^[ \t]*\/\// {next} {n++} END {print n}'
	@find . -name '*.s' -not -path './bench/*' -print0 \
		| xargs -0 awk '/^[ \t]*$$/ {next} /^[ \t]*\/\// {next} {n++} END {print "asm " n}'

# The other size of the product, the one simplicity PRs used to count by
# hand: what a caller or an operator can name. Exported funcs, methods and
# types in non-test Go outside bench/; flag definitions per cmd/ (on the flag
# package or a FlagSet, the Var and Func forms too, one per line); exported
# fields of every struct named *Config or *Options (each an option under the
# simplicity-review guide), per type; and DESIGN.md's line count, the design
# doc being a budget too. Line-based like loc: a declaration inside a
# `type (...)` group or split over lines is not seen; there are none.
# README.md's line count follows DESIGN.md's: the README is a budget too.
surface:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 \
		| xargs -0 cat | grep -cE '^(func (\([^)]*\) )?[A-Z]|type [A-Z])' \
		| sed 's/^/exported funcs+methods+types  /'
	@for d in cmd/*/; do \
		printf 'flags  %-40s %s\n' "$$d" "$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + \
			| grep -cE '\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|Uint|Uint64)\("|\.(Bool|Duration|Float64|Int|Int64|String|Text|Uint|Uint64)?Var\([^,]+, "')"; \
	done
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | LC_ALL=C sort | xargs awk ' \
		FNR == 1 { pkg = FILENAME; sub(/^\.\//, "", pkg); if (!sub(/\/[^\/]*$$/, "", pkg)) pkg = "dssp" } \
		/^type ([A-Z][A-Za-z0-9_]*)?(Config|Options) struct \{/ { name = pkg "." $$2; next } \
		name != "" && /^}/ { printf "fields %-40s %d\n", name, n; total += n; name = ""; n = 0; next } \
		name != "" && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*( |$$)/) { n += split(substr($$0, RSTART, RLENGTH), parts, ",") } \
		END { printf "fields %-40s %d\n", "total", total }'
	@for f in DESIGN.md README.md; do printf 'lines  %-40s %s\n' $$f "$$(wc -l < $$f)"; done

# The surface as a gate: make surface must print exactly the committed
# SURFACE.txt, so a change that adds or removes a name, a flag or an option,
# or grows or shrinks DESIGN.md or README.md, shows it in its own diff. Refresh with
# make surface > SURFACE.txt.
surface-check:
	@$(MAKE) -s --no-print-directory surface | diff -u SURFACE.txt -

# Packages no product code reaches: every internal/ package outside the
# non-test dependency closure of the root package and ./cmd/... fails the
# target. A library nothing ships is deleted with its tests, not kept; the
# one allowed entry is the test harness internal/cluster/clustertest, which
# only tests import.
ORPHANS_ALLOWED = dssp/internal/cluster/clustertest
orphans:
	@reached=$$($(GO) list -deps . ./cmd/... | grep '^dssp/internal/'); \
	orphans=$$($(GO) list ./internal/... | grep -vxF -e "$$reached" -e '$(ORPHANS_ALLOWED)'); \
	if [ -n "$$orphans" ]; then \
		echo "internal packages no product code imports:" >&2; \
		echo "$$orphans" >&2; \
		exit 1; \
	fi

# Functions and types nothing calls. An unexported top-level func or method
# (main and init aside) whose name appears as a token nowhere else in the
# non-test Go outside bench/, comment lines and trailing // comments stripped,
# fails the target. So does an exported top-level func, method or type whose
# name no non-test Go spells beyond its declarations, bench/ counted as a
# caller (some product names live only there); UNUSED_EXPORTED_ALLOWED lists
# the exceptions as name=reason, and internal/cluster/clustertest, the
# harness only tests import, is exempt whole. One awk pass counts every
# token; a declaration is the name's one sighting when nothing else names
# it. A token count, not a type check: two unused declarations of one
# unexported name (per-architecture twins) hide each other, a method shares
# its name's count with every other method of that name, a type's own
# method receivers count as its callers, and a name that only a string
# spells counts as used.
# The exported exceptions: test seams a test flips (seam); constructors that
# panic, for test fixtures (fixture); the DSSP controller's grant record and
# bounds, kept until the controller grading decides them (pending); the
# simulator's event heap, which container/heap calls (heap); and the tensor
# comparisons and fill the tests of every package assert with (assert).
UNUSED_EXPORTED_ALLOWED = SetLaneEnabled=seam SetReleaseHook=seam SetMatMulParallelMinFlops=seam \
	MustNewDSSP=fixture MustNewSSP=fixture MustNewASP=fixture MustNewBSP=fixture \
	Grants=pending RecordGrants=pending Allowance=pending LowerBound=pending \
	Less=heap ApproxEqual=assert L2Norm=assert Fill=assert
unused:
	@unused=$$({ find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'; find ./bench -name '*.go' -not -name '*_test.go'; } \
		| LC_ALL=C sort | xargs awk -v allowed='$(UNUSED_EXPORTED_ALLOWED)' ' \
		BEGIN { k = split(allowed, a, /[ \t]+/); for (i = 1; i <= k; i++) { split(a[i], kv, "="); allow[kv[1]] = 1 } } \
		{ sub(/^[ \t]*\/\/.*/, ""); sub(/[ \t]\/\/.*/, "") } \
		FILENAME ~ /^\.\/bench\// { k = split($$0, tok, /[^A-Za-z0-9_]+/); for (i = 1; i <= k; i++) if (tok[i] != "") bseen[tok[i]]++; next } \
		/^func / { d = $$0; sub(/^func (\([^)]*\) )?/, "", d); \
			if (match(d, /^[a-z_][A-Za-z0-9_]*/)) { n = substr(d, 1, RLENGTH); if (n != "main" && n != "init") at[n] = FILENAME ":" FNR } } \
		/^(func |type )/ && FILENAME !~ /^\.\/internal\/cluster\/clustertest\// { d = $$0; sub(/^(func (\([^)]*\) )?|type )/, "", d); \
			if (match(d, /^[A-Z][A-Za-z0-9_]*/)) { n = substr(d, 1, RLENGTH); if (!(n in allow)) { xat[n] = FILENAME ":" FNR; decl[n]++ } } } \
		{ k = split($$0, tok, /[^A-Za-z0-9_]+/); for (i = 1; i <= k; i++) if (tok[i] != "") seen[tok[i]]++ } \
		END { for (n in at) if (seen[n] == 1) print at[n] ": " n; \
			for (n in xat) if (seen[n] + bseen[n] <= decl[n]) print xat[n] ": " n " (exported)" }' | LC_ALL=C sort); \
	if [ -n "$$unused" ]; then \
		echo "functions and types nothing calls:" >&2; \
		echo "$$unused" >&2; \
		exit 1; \
	fi

# Run the fuzz corpus seeds as plain regression tests (no fuzzing engine):
# exactly what CI executes so a decoder regression fails fast everywhere —
# the wire's frame decoders and the checkpoint restore that reads its frames.
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/transport/ ./internal/ps/

# Robustness scenario-matrix smoke, dsspsim's -exp matrix mode: the 2x2 grid
# (clean / 1-of-4 gradient attacker x plain sum / trimmed-mean+guard) on real
# training, plus the simulated hostile-network timing sweep (calm, flapping
# and partitioned links; the relay tier is not simulated, aggtree-smoke
# measures it on the real stack). Fails when any cell expected to converge
# drops below the accuracy floor; experiment-report.json is the CI artifact.
experiment-smoke:
	$(GO) run ./cmd/dsspsim -exp matrix -paradigm SSP -trials 2 \
		-accuracy-floor 0.6 -out experiment-report.json

# Observability smoke: a live 4-worker TCP run with the admin endpoint on,
# scraped mid-training — every cataloged /metrics series (docs/METRICS.md)
# must be present and the unified counters must agree with /statusz and
# the push-lifecycle traces. -count=1 defeats the test cache: this is an
# end-to-end network test, not a unit result worth memoizing.
metrics-smoke:
	$(GO) test -run 'TestMetricsEndpointDuringTCPRun|TestWorkerMetricsEndpoint' -count=1 -v .

# Server-group smoke: a coordinator plus 3 data servers over real TCP trains
# a 4-worker DSSP run to completion, the coordinator's clock must match the
# pushed iteration count, and the model assembled from the shard owners must
# hit the accuracy floor. -count=1 defeats the test cache: this is an
# end-to-end network run, not a unit result worth memoizing.
cluster-smoke:
	$(GO) test -run 'TestClusterSmoke' -count=1 -v .

# Aggregation-tier smoke: the relay-churn run over real TCP (4 workers
# behind two fanout-2 relays, one killed mid-run under BSP/SSP/DSSP — the
# subtree must re-parent, no barrier may deadlock) plus the in-process
# ingress-reduction pin (16 workers at fanout 4 land >=3x fewer push frames
# and >=2x fewer bytes on the root than flat, at fanout 8 fewer frames
# still). -count=1 defeats the test
# cache: these are end-to-end network runs, not unit results worth
# memoizing.
aggtree-smoke:
	$(GO) test -run 'TestTCPRelayDeathReparentsSubtree' -count=1 -v .
	$(GO) test -run 'TestTreeIngressReduction' -count=1 -v ./internal/trainer/

# Command-line smoke: the smokes above drive the library; this one builds
# cmd/psserver and cmd/psworker and runs them as processes over loopback on
# fixed ports — a flat 2-worker job on 17 examples, whose workers must report
# the same iteration count, a coordinator with two data servers
# (-shards 4 and -cluster-servers 2 on the coordinator alone, which tells
# each data server its range) whose workers run with -reconnect 30s, plus a
# standby for index 0 started without its owner's address, whose log must
# name data server 0's, at start and in its end-of-run line with the
# positive store version it reached, and which must exit 0 when the run
# completes, and a root behind one relay
# with default flags — failing on any non-zero exit. Every worker is one
# command line with no topology flag, one pointed at a data server must fail
# naming the coordinator, and no log may print Paradigm(0). The
# group and the root lease at 200ms (-lease) while one worker of each job
# computes 300ms an iteration with no heartbeat flag, and must end with 0
# departures; that slow worker joins first, read off the server's
# -metrics-addr. It checks that each psserver role refuses by name a flag it
# does not read (a relay -guard, -workers, -compress and -lease, a
# coordinator -cluster-index, a data server -shards and -cluster-servers, a
# flat server -parent) and that
# psserver -role coordinator refuses the guard its role does not act on. The
# binaries and the per-process logs land in .cli-smoke/.
cli-smoke:
	mkdir -p .cli-smoke
	$(GO) build -o .cli-smoke/psserver ./cmd/psserver
	$(GO) build -o .cli-smoke/psworker ./cmd/psworker
	bash scripts/cli_smoke.sh .cli-smoke

# Profile real training in-process: a fixed-time run of one ResNet-8
# forward+backward at the shape the slowest end-to-end workload
# (flat-compute) runs, with CPU and allocation profiles. Inspect with
#   go tool pprof cpu.pprof     (then: top, web)
#   go tool pprof -sample_index=alloc_space mem.pprof
# For live servers, the same profiles come from the -metrics-addr
# listener's /debug/pprof/ endpoints.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkResNet8IterationBatch8' -benchtime=30s \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/nn/

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: build fmt-check vet loc surface-check orphans unused race lease-stress-names lease-stress portable bench-test fuzz-seeds experiment-smoke metrics-smoke cluster-smoke aggtree-smoke cli-smoke bench-smoke
