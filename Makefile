# ccAI reproduction — standard targets.

GO ?= go

.PHONY: all build test race stress bench bench-smoke benchmark-check soak-smoke soak-full telemetry-smoke llm-smoke sync-count cover fuzz vet fmt fmt-check loc experiments profile profile-observed profile-decode profile-prefill profile-serve clean ci

all: build test

# Everything a merge gate needs: formatting and static checks, the full
# suite, the race detector over the concurrent retry paths, the
# multi-tenant stress matrix, a one-iteration pass over every benchmark
# (so they can't rot), both soak presets byte-diffed against their
# committed scorecards, a short fuzz pass over the attacker-facing
# parsers (fault plans included) and the SC's control BAR and submission
# ring, the serving queue and engine against their reference models, and the
# telemetry-plane smoke: live scrape, token isolation, audit-chain
# tamper evidence. benchmark-check compiles and smoke-tests the
# benchmark of record against this tree, and sync-count holds the steady
# decode step and the 64 KiB task to their mutex-section budgets.
ci: fmt-check vet test race stress bench-smoke benchmark-check soak-smoke soak-full telemetry-smoke llm-smoke sync-count
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/pcie/
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault/
# The serving queue and the LLM engine against their reference models,
# from the saved scripts under each package's testdata/fuzz/, which
# the `test` target plays as FuzzServingQueue/<name> and
# FuzzServingEngine/<name>. The queue model holds sched.Fair's
# claims, Len and Pending, every deficit and the cursor to DRR as
# documented: a weighted top-up only when no free flow can afford its
# head, a claim that empties its flow giving up its leftover credit, a
# requeue at the head with its refund, a yield at the tail without one,
# lazy cancel (whole, or its CAS and its uncount apart), close draining
# then ending. The engine model holds KV in use to the live
# reservations, the session slots, the step log exact in settle order,
# chunks in order per session with only chunk 0 a prefill, and no step
# dispatched for a released or finished session.
	$(GO) test -run '^$$' -fuzz=FuzzServingQueue -fuzztime=15s ./internal/sched/
	$(GO) test -run '^$$' -fuzz=FuzzServingEngine -fuzztime=15s ./internal/llm/
# The platform code that drives them, against one model: the blob
# Scheduler on a two-tenant chassis — admission and its sentinels,
# dispatch order through its one gated slot, cancels and deadlines in
# the queue and at the slot, backpressure, drain, shutdown, the
# SchedStall and CancelRace plans — beside tenant 0's inference
# sessions, which the protocol model drives: every chunk, every
# terminal error, the chassis hygiene after every close. The scheduler
# and session cells it replaced play as FuzzServingPlatform/<name>.
	$(GO) test -run '^$$' -fuzz=FuzzServingPlatform -fuzztime=15s .
# The SC's two host-writable surfaces: raw control-BAR writes, and the
# submission ring — slot bytes and the doorbell's tail and end — which is
# the only way in for sealed configuration, positioned tags, notifies and
# command runs. The seeds carry the refused run entries (one at a non-A3
# region, one longer than MaxRunSlots) and the refused doorbell ends (one
# that cuts the seal, 0, past the slot).
	$(GO) test -run '^$$' -fuzz=FuzzControllerControlWindow -fuzztime=10s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzControllerRing -fuzztime=10s ./internal/core/
# Ring framing, slot by slot and entry by entry: a framing error anywhere
# in a published span, a broken chain of packed entries included, a
# doorbell end that cuts the span's seal, or a seal that does not check
# refuses the whole span before any entry of it is dispatched — a cleared
# more bit that would hide a release included, and a stale slot from an
# earlier lap, which the seal alone tells apart.
# Beside them the recovery ladder under doorbells dropped past one
# flush's retries: the task still ends exact. And the protection
# granularity: a device read inside a bulk region's 4 KiB chunks is
# served from every chunk it touches, each fetched and verified whole —
# a tampered one anywhere under the read fails it — and the wire ledger
# holds each shape's TLPs and GCM calls (64 a 64 KiB task).
	$(GO) test -run 'TestControllerRingFraming|TestControllerRingPackedFraming|TestDecryptReadInsideChunks' ./internal/core/
	$(GO) test -run 'TestRingClearedMoreBit|TestRingHiddenRelease|TestRingDoorbellsDroppedPastOneFlush|TestWireLedger' .
# The device's side of the SC: one MWr at any offset of a live D2H region,
# up to 8 KiB, is refused whole or sealed exactly, and no plaintext
# reaches the host segment either way.
	$(GO) test -run '^$$' -fuzz=FuzzDeviceWriteBurst -fuzztime=10s ./internal/core/
# The deterministic allocation ceilings (64 KiB protected task, the
# steady decode step — TestTaskAllocBudget/decode-step — and the D2H read
# path) run as named tests so a breach points at the exact budget, not a
# benchmark diff, and at one proc and at two, since what a 64 KiB task or
# collect allocates must not depend on GOMAXPROCS. The scheduled rows of
# TestTaskAllocBudget hold what a
# Scheduler round trip may add, by kind of context; beside them the A3
# key space, 33,000 tasks and a re-trust that stages the command ring
# under a region id past 65,536 (a run entry is positioned at its region
# by the full id and held on that region's own record, so no 16-bit key
# is left to alias), and the
# scheduler's goroutine budget: at most Slots of them however many
# requests, none left after Drain or Shutdown.
	$(GO) test -cpu 1,2 -run 'TestTaskAllocBudget|TestReadAllocBudget|TestA3RecordKeySpace|TestSchedulerWorkersResident' ./ ./internal/adaptor/
# The price of observation, as named deterministic gates beside them:
# exact spans per op, allocation parity observed/unobserved, the
# symbol-table bound, the names benchmark/ and the soak scorecards read,
# a Reset racing open spans, a snapshot calling its read functions
# outside the registry's lock — and the tracer against its reference,
# from the seeded scripts TestSpansMatchesReference plays.
	$(GO) test -run 'TestSpanBudget|TestObservedAllocParity|TestSymbolTableBounded|TestObservabilityNameContract' ./ ./internal/obsv/
	$(GO) test -race -run 'TestResetWithOpenSpans|TestSpansMatchesReference|TestCounterFuncReadsOutsideLock' ./internal/obsv/
	$(GO) test -run '^$$' -fuzz=FuzzTracerScript -fuzztime=10s ./internal/obsv/
# One chassis: a protected Platform puts the same packets on both
# segments as tenant 0 of a one-tenant MultiPlatform, its host side is a
# Mux, and every slice's TVM-private window dies in its own filter.
	$(GO) test -run 'TestPlatformIsOneUnitChassis|TestPlatformHostSideIsMux|TestSlicePrivateWindowReachesFilter' ./
# D2H write bursts: the device posts its results to the SC in MaxReadReq
# bursts, and the host segment carries the same rows as 256-byte device
# writes left it, protected and Vanilla (the wire ledger's task rows);
# the SC takes a burst whole or not at all, seals it exactly as
# chunk-by-chunk writes, zeroes its staging on a seal fault and never
# publishes progress past what is in host memory.
	$(GO) test -run 'TestWireLedger|TestEncryptWriteBurst' ./ ./internal/core/
# Sealed where the bytes leave: the SC seals a D2H span straight into one
# host-write buffer whose slots its chunk MWrs carry, and never reuses a
# buffer a tap may hold; SealBatchInto seals in place, writes nothing
# past its buffer, and refuses a batch before writing any of it.
	$(GO) test -run 'TestD2HSpanSealsIntoOneHostBuffer|TestD2HSpanBufferHeldOnceTapped|TestSealBatchInto' ./internal/core/ ./internal/secmem/
# Command runs: a submission's runs ride its sealed span as run entries,
# the device reads each run of command slots with one read (two where it
# wraps the ring), and the SC answers only the next read of a whole run
# it holds, from the bytes the entries carried, keeping none once served
# and none past the doorbell's reap; no command run crosses the
# host segment (the wire ledger's protected shapes have no command-run
# row). The fuzz aims any read at a ring with any run entries: served
# whole as carried, or refused, with no host fetch either way.
	$(GO) test -run 'TestWireLedger|TestVerifiedRead|TestVerifiedRun|TestVerifiedRegionSync|TestKickReMACsRemainder' ./ ./internal/core/ ./internal/adaptor/
	$(GO) test -run '^$$' -fuzz=FuzzVerifiedRead -fuzztime=10s ./internal/core/
# The one A2 read path: the SC decrypts a device read touching 1 to 16
# chunks when it arrives — a read inside a one-shot region's chunks from
# every chunk it touches, fetched and verified whole — and refuses bad
# geometry or an unarmed step-window slot before it fetches or spends a
# tag (the wire ledger holds what it fetches). The fuzz aims any read,
# under any chunk size, at a staged region: served byte-exact after the
# fetches of the chunks it touches, or refused with none. The read is
# where a region's tag table is consumed.
	$(GO) test -run 'TestDecryptReadRejects|TestWireLedger' ./ ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzDecryptRead -fuzztime=10s ./internal/core/
# Per-TLP lookups without read locks: the bus binds each claim to its
# endpoint (a claim made before attach routes, a re-attach revives no
# detached claim), the IOMMU denies a negative size and a range wrapping
# past 2^64, and the three lock-free readers — Space.Resolve, IOMMU.Check,
# Bus.Route — never miss, never see a freed buffer or a revoked grant or
# claim while writers churn, under the race detector. Host buffers are
# back at their post-trust count after tasks, sessions and a burst, and
# an Alloc/Free pair allocates only the *Buffer. Beside them the per-record
# snapshots and atomics: ParamsManager.Stream and Mux.Handle
# never miss a live stream or unit and never return a destroyed stream
# while Activate, Rekey, DestroyAll and AddUnit churn; a stream's Epoch,
# Remaining and Fence.Valid stay exact across a concurrent Rekey; and
# GMAC never answers under a key a DestroyAll was zeroing.
	$(GO) test -run 'TestBusRoutesByAddress|TestBusDetach|TestIOMMUPermissionEnforcement|TestHostBuffersReleasedAfterWork|TestSpaceAllocFreeAllocatesOneObject' ./ ./internal/pcie/ ./internal/mem/
	$(GO) test -race -run 'TestLockFreeReadersUnderChurn|TestSnapshotReadersUnderChurn|TestStreamReadersExactAcrossRekey|TestGMACUnderKeyChurn' ./internal/mem/ ./internal/core/ ./internal/secmem/
# One record per live region: nothing the SC held for a region outlives
# its release — no progress count after 50 tasks, none carried into a
# reinstall under the same ID, no tag or metadata write for a region
# released while its span seals — and one ID names one live region.
	$(GO) test -run 'TestReleasedRegionsLeaveNoState|TestReinstalledRegionCountsFromZero|TestInstallUnderLiveIDRejected|TestReleaseInSealKeepsNoState' ./ ./internal/core/
# One timing model: every paper experiment but Table 3 (its LoC rows move
# with the code) renders exactly the text in
# internal/bench/testdata/experiments.golden, so a refactor moves no
# figure; regenerate with -update only when a figure is meant to move.
	$(GO) test -run 'TestExperimentsGolden' ./internal/bench/
# One wire ledger: what every fixed op shape — bring-up, tasks of four
# sizes, the llm-decode session's prefill and steady steps, Close plus
# re-trust, a Vanilla task — puts on both segments, one row per role and
# kind, diffed against testdata/wire_ledger.golden (regenerate with
# -update only when the wire is meant to move); beside it, every -run
# pattern in this Makefile names a test that exists.
	$(GO) test -run 'TestWireLedger|TestMakefileRunPatternsNameTests' ./
# One exported surface: every exported function under internal/ has a
# non-test caller, satisfies an interface, or is a seam named with its check.
	$(GO) test -run 'TestExportedSurfaceIsCalled' ./
# One protocol model: the fault matrix is 36 saved traces of the SC
# session model, each played twice and its outcome line diffed against
# testdata/fault_matrix.golden (regenerate with -update only when an
# outcome is meant to move); then a minute of the stateful fuzz from the
# committed corpus (the RQ2 attacks, the ring cells, the session and
# step-channel cells, the leaks and bugs it found).
	$(GO) test -run '^TestFaultMatrix$$' .
	$(GO) test -run '^$$' -fuzz=FuzzProtocolTrace -fuzztime=60s .
# Packet roles: every packet on both segments of a protected slice
# carries the role its sender stamped, agreeing with the register or
# host buffer it targets; no non-test file of the SC, the Adaptor, the
# xPU or the crypto layer reads one; a fault counts only the packets of
# the role it names (the link-class matrix traces, replayed with an SC
# status read before every ring doorbell, fire and end the same); a
# slice whose Adaptor fails a desynced ring closed is untrusted, and
# comes back on re-trust even when that teardown write was lost.
	$(GO) test -run 'TestEveryPacketHasItsRole|TestRoleNeverDecides|TestFaultsCountPerRole|TestRingDesyncLeavesSliceUntrusted|TestRetrustAfterLostTeardownWrite' ./
# The same model on the decode stream: the session cells it replaced play
# their saved traces — the step-channel attacks, the decode-step and
# prefill fault cells, window renewal, release on Close and abort, the
# mid-decode rekey, and a session outliving its trust generation.
	$(GO) test -run 'TestStepChannel|TestDecodeStepFaultsHeal|TestPrefillKVTagLossHeals|TestRekeyMidDecode|TestSessionDiesWithItsTrustGeneration' .
# Teardown hygiene runs inside `test` above, shuffled: every test that
# builds its slice with a shared constructor checks it is back at its
# post-trust counts before Close, and TestMain fails the root package
# and internal/adaptor when their tests leave goroutines behind.

build:
	$(GO) build ./...

# Shuffled: test order is not part of any contract, and a test that
# leans on a neighbour's leftovers should fail here, not in the field.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# The multi-tenant concurrency stress matrix (N tenants × fault classes
# × seeds) plus the shared-layer concurrency tests, run twice under the
# race detector so scheduling varies between passes — and the weighted
# fairness flood, a flake until ISSUE 25, twenty times, with the serving
# model's saved scripts, whose slot hand-offs and cancellation hooks
# race the model's checks, and the ungated race cell (sessions on two
# tenants and two engine workers beside a cancelled blob storm); beside them a
# metrics scrape racing a serving scheduler, and the same scrape fifty
# times at one proc, where its goroutine is scheduled last.
stress:
	$(GO) test -race -count=2 -run 'TestConcurrencyStressMatrix|TestConcurrentMultiTenantServing|TestSameTenantConcurrentCallsSerialize|Concurrent|TestSnapshotDuringServing' ./ ./internal/core/ ./internal/secmem/
	$(GO) test -race -count=20 -run 'TestSchedulerSemanticsTable/weighted_fairness_flood|FuzzServingPlatform|TestServingRacesAcrossTenants' ./
	$(GO) test -cpu 1 -count=50 -run 'TestSnapshotDuringServing' ./

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails (listing the files) when anything is not gofmt-clean.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The one line counter simplicity PRs and ROADMAP quote: Go lines that
# are neither blank nor a // comment (the tree has no block comments),
# per package and in total for the non-test tree outside benchmark/, the
# part of it that is the program (root + internal/ + cmd/, no examples),
# and the test tree.
loc:
	@set -f; count() { xargs cat | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'; }; \
	src="-name *.go ! -name *_test.go ! -path ./benchmark/*"; \
	for d in $$(find . $$src -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 $$src | count) $$d; \
	done; \
	printf '%7d  non-test Go outside benchmark/\n' $$(find . $$src | count); \
	printf '%7d  of it root + internal/ + cmd/\n' $$(find . $$src ! -path './examples/*' | count); \
	printf '%7d  test Go outside benchmark/\n' $$(find . -name '*_test.go' ! -path './benchmark/*' | count)

# The CI soak: the smoke storm preset (seconds of wall clock), its
# scorecard byte-diffed against the committed baseline — deterministic
# virtual-time numbers get an exact gate.
soak-smoke:
	$(GO) run ./cmd/ccai-bench -only soak -soak smoke -out "" -soak-compare BENCH_results.json

# The full storm preset under the same exact gate (about 11 s on 2 vCPUs):
# the smoke preset alone let a drift in the full scorecard go unseen.
soak-full:
	$(GO) run ./cmd/ccai-bench -only soak -soak full -out "" -soak-compare BENCH_results.json

# The LLM-serving smoke: the serving model's saved scripts (the
# streaming sessions, exact chunk by chunk and interleaved with each
# other and with blob tasks, the error taxonomy, release on Close), the
# staged-once KV invariant (the PCIe tap proof that decode never
# re-stages the cache), the wire ledger (per decode step: installs, MMIO writes and reads, host
# and internal TLPs by role; installs per session) and the error Close
# aborts an unfinished stream with — the §16 serving story's merge gate,
# in seconds.
llm-smoke:
	$(GO) test -count=1 -run 'FuzzServingPlatform|TestKVStagedOncePerSession|TestWireLedger|TestCloseAbortMatchesBothSentinels' .

# Mutex sections per op, counted in a rewritten copy of the module (the
# checkout is only read): every sync.Mutex and sync.RWMutex there counts
# its Lock and RLock calls by calling function. Prints a 256 B task, a
# 64 KiB task and the steady decode step by call site, and fails when the
# decode step or the 64 KiB task is over its budget in
# cmd/ccai-synccount (a budget may only go down).
sync-count:
	$(GO) run ./cmd/ccai-synccount

# The telemetry-plane smoke: boot a two-tenant chassis with the live
# telemetry plane on an ephemeral port, fire the fault matrix (rekey,
# fail-closed teardown, re-trust, rogue filtering, seal tamper), scrape
# the endpoints through the token-auth matrix, and verify the audit
# hash chain — including that a flipped byte and a truncation are
# detected.
telemetry-smoke:
	$(GO) run ./cmd/ccai-trace -audit

# One testing.B sub-benchmark per paper table/figure (BenchmarkExperiments),
# plus wall-clock runs of the functional paths. They gate nothing; the
# benchmark of record is benchmark/ (see benchmark/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Compile and run every benchmark exactly once — a smoke test that
# keeps benchmark code building and passing without paying for timing.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The benchmark of record (benchmark/, a module of its own) imports the
# root package's exported surface; vet and its smoke tests run here so a
# signature it uses cannot drift unnoticed.
benchmark-check:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# Coverage summary across the module.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Short fuzz campaigns over every attacker-facing parser, and over the
# serving queue and engine against their reference models.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=15s ./internal/pcie/
	$(GO) test -fuzz=FuzzUnmarshalRule -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzUnmarshalDescriptor -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzUnmarshalBlob -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzUnmarshalRekeyCommand -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzControllerControlWindow -fuzztime=15s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzControllerRing -fuzztime=15s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzDeviceWriteBurst -fuzztime=15s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzVerifiedRead -fuzztime=15s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzDecryptRead -fuzztime=15s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzTracerScript -fuzztime=15s ./internal/obsv/
	$(GO) test -run '^$$' -fuzz=FuzzServingQueue -fuzztime=30s ./internal/sched/
	$(GO) test -run '^$$' -fuzz=FuzzServingEngine -fuzztime=30s ./internal/llm/
	$(GO) test -run '^$$' -fuzz=FuzzServingPlatform -fuzztime=30s .
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=15s ./internal/fault/
	$(GO) test -run '^$$' -fuzz=FuzzProtocolTrace -fuzztime=60s .

# CPU and allocation profiles of the end-to-end protected 64 KiB task —
# the workload the DESIGN.md §10 datapath work optimizes — at the shape
# the benchmark of record measures: one proc (-cpu 1). The
# cumulative top lands in profiles/top.txt so an issue can quote it;
# dig further with `go tool pprof profiles/ccai.test profiles/cpu.out`
# (or mem.out).
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkProtectedTask64KiB$$' -benchtime 3000x -cpu 1 \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out -o profiles/ccai.test .
	$(GO) tool pprof -top -cum -nodecount=40 profiles/ccai.test profiles/cpu.out > profiles/top.txt
	@cat profiles/top.txt

# CPU profiles of the two observed ops — the 64 KiB task and the
# 512-token decode session with WithObserve() — at the same one-proc
# shape, harvested so that no span is dropped (the benchmarks fail
# otherwise). The cumulative tops land in profiles/top-observed.txt;
# what recording costs is the obsv.* frames in it.
profile-observed:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkProtectedTask64KiBObserved$$' -benchtime 3000x -cpu 1 \
		-cpuprofile profiles/cpu-task-observed.out -o profiles/ccai.test .
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeSessionObserved$$' -benchtime 1000x -cpu 1 \
		-cpuprofile profiles/cpu-decode-observed.out -o profiles/ccai.test .
	{ echo "== BenchmarkProtectedTask64KiBObserved"; \
	  $(GO) tool pprof -top -cum -nodecount=40 profiles/ccai.test profiles/cpu-task-observed.out; \
	  echo "== BenchmarkDecodeSessionObserved"; \
	  $(GO) tool pprof -top -cum -nodecount=40 profiles/ccai.test profiles/cpu-decode-observed.out; \
	} > profiles/top-observed.txt
	@cat profiles/top-observed.txt

# CPU and allocation profiles of the unobserved 512-token decode session
# (BenchmarkDecodeSession, the benchmark's llm-decode op) at one proc.
# The cumulative CPU top and the allocation top by object count (every
# allocation sampled: -memprofilerate 1) land in profiles/top-decode.txt.
profile-decode:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeSession$$' -benchtime 3000x -cpu 1 \
		-cpuprofile profiles/cpu-decode.out -o profiles/ccai.test .
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeSession$$' -benchtime 200x -cpu 1 \
		-memprofile profiles/mem-decode.out -memprofilerate 1 -o profiles/ccai.test .
	{ echo "== BenchmarkDecodeSession, CPU"; \
	  $(GO) tool pprof -top -cum -nodecount=40 profiles/ccai.test profiles/cpu-decode.out; \
	  echo "== BenchmarkDecodeSession, allocated objects"; \
	  $(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 profiles/ccai.test profiles/mem-decode.out; \
	} > profiles/top-decode.txt
	@cat profiles/top-decode.txt

# CPU and allocation profiles of one prefill-only session
# (BenchmarkPrefillSession, the benchmark's llm-prefill op: 65,280 B of
# KV sealed and staged once, one 8-token chunk back) at one proc. The
# cumulative CPU top and the allocation tops by bytes and by object
# count land in profiles/top-prefill.txt.
profile-prefill:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkPrefillSession$$' -benchtime 20000x -cpu 1 \
		-cpuprofile profiles/cpu-prefill.out -o profiles/ccai.test .
	$(GO) test -run '^$$' -bench 'BenchmarkPrefillSession$$' -benchtime 1000x -cpu 1 \
		-memprofile profiles/mem-prefill.out -memprofilerate 1 -o profiles/ccai.test .
	{ echo "== BenchmarkPrefillSession, CPU"; \
	  $(GO) tool pprof -top -cum -nodecount=40 profiles/ccai.test profiles/cpu-prefill.out; \
	  echo "== BenchmarkPrefillSession, allocated bytes"; \
	  $(GO) tool pprof -sample_index=alloc_space -top -nodecount=15 profiles/ccai.test profiles/mem-prefill.out; \
	  echo "== BenchmarkPrefillSession, allocated objects"; \
	  $(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 profiles/ccai.test profiles/mem-prefill.out; \
	} > profiles/top-prefill.txt
	@cat profiles/top-prefill.txt

# CPU profile of one serve-burst op (BenchmarkServeBurst: four tenants,
# a two-slot scheduler, one submitter, eight mixed-size tasks a burst) at
# one proc. The cumulative top lands in profiles/top-serve.txt, followed
# by the frames that say what the serving layer itself costs: stack
# growth (runtime.newstack/copystack — there is none while the slots are
# resident workers), goroutine starts (runtime.newproc) and the
# scheduler's own methods.
profile-serve:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkServeBurst$$' -benchtime 4000x -cpu 1 \
		-cpuprofile profiles/cpu-serve.out -o profiles/ccai.test .
	{ echo "== BenchmarkServeBurst, CPU"; \
	  $(GO) tool pprof -top -cum -nodecount=40 profiles/ccai.test profiles/cpu-serve.out; \
	  echo "== of it: stack growth, goroutine starts, the scheduler"; \
	  $(GO) tool pprof -top -cum -nodecount=2000 profiles/ccai.test profiles/cpu-serve.out \
		| grep -E 'runtime\.(newstack|copystack|newproc)$$|ccai\.\(\*Scheduler\)|ccai\.startWorkers' || true; \
	} > profiles/top-serve.txt
	@cat profiles/top-serve.txt

# Regenerate every table and figure of the paper's evaluation (prints
# only; no file is written).
experiments:
	$(GO) run ./cmd/ccai-bench

clean:
	$(GO) clean ./...
