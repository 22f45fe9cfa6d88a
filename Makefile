GO ?= go

# Crash matrix breadth for `make crash` (the test's default is 60; the
# pre-merge gate sweeps wider). Override: make crash CRASH_SCHEDULES=500
CRASH_SCHEDULES ?= 120

.PHONY: build test vet fmtcheck race bench benchbuild fuzz crash maint mvcc pipeline oo1 server shard metrics-lint verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
	$(GO) test -bench=BenchmarkPool -benchmem -run '^$$' ./internal/storage/

# The repo benchmark (perfbench/, BENCHMARK.json) is a module of its own that
# imports the engine through its public packages: vet and test it so an
# engine API change that breaks it is caught here, not by the driver.
benchbuild:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Every native fuzz target of the module (FuzzImage, FuzzDecodeValue,
# FuzzParse, and whatever is added later), ten seconds each. `go test -fuzz`
# takes one package and one target per run, so the targets are listed from
# the source. Not part of verify: the seed corpora already run as plain
# tests under `go test ./...`; this is for hunting.
fuzz:
	@for file in $$(grep -rl --include='*_test.go' --exclude-dir=perfbench '^func Fuzz' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' $$file); do \
			echo "== $$target ($$(dirname $$file))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$(dirname $$file) || exit 1; \
		done; \
	done

# Static check of obs metric registrations: every name must follow the
# layer_subsystem_name convention and no name may be registered twice
# (internal/obs/metricslint walks the source with go/parser).
metrics-lint:
	$(GO) run ./internal/obs/metricslint .

# The crash-recovery matrices under the race detector, at pre-merge breadth:
# every schedule crashes the engine at a distinct I/O op and verifies the
# recovery invariants after reopening (crash_test.go, internal/fault). The
# pattern takes in every TestCrash* sweep of the root package — compaction,
# MVCC, commit pipeline, clustered compaction — so the env-scaled halves of
# the focused targets below need no second run in verify.
crash:
	CRASH_SCHEDULES=$(CRASH_SCHEDULES) $(GO) test -race -count=1 -run 'TestCrash' .

# The maintenance subsystem under the race detector: compactor, automatic
# compaction (trigger, quiet rule, hysteresis), leak reclaimer, statistics
# collector and the planner's selectivity model (internal/maint,
# internal/stats), the segment counters and the detached-heap rule
# (internal/storage), the front-door pair — one automatic rewrite after a
# bulk delete, lock-free readers beside looping rewrites — plus the
# compaction crash matrix.
maint:
	$(GO) test -race -count=1 ./internal/maint/ ./internal/stats/
	$(GO) test -race -count=1 -run 'TestSegmentCountersMatchScan|TestSegmentInfoNoPageIO|TestDetachedHeapTurnsReadersAway' ./internal/storage/
	$(GO) test -race -count=1 -run 'TestFetchDuringCompaction|TestAutoCompactOnceAfterBulkDelete' .
	CRASH_SCHEDULES=$(CRASH_SCHEDULES) $(GO) test -race -count=1 -run 'TestCrashDuringCompaction|TestCrashCheckpointRootSwap' .

# The MVCC snapshot stack under the race detector: visibility and
# chain-lifecycle invariants (internal/mvcc), the snapshot/locked scan
# differential, concurrent reader-vs-writer stress, and the snapshot
# crash matrix (epoch persistence across recovery).
mvcc:
	$(GO) test -race -count=1 ./internal/mvcc/
	$(GO) test -race -count=1 -run 'TestSnapshot' ./internal/core/
	CRASH_SCHEDULES=$(CRASH_SCHEDULES) $(GO) test -race -count=1 -run 'TestCrashMatrixMVCC' .

# The commit pipeline and fail-stop error handling under the race
# detector: the WAL writer/watermark unit tests and the group-wait regimes
# (trigger_test.go), the fsync-latch and poison regressions, two committers
# and a snapshot reader through a hundred automatic checkpoints with a reopen
# oracle, the commit that lands between a checkpoint's flush and its fence,
# and the pipeline crash schedules (batch append, fsync, watermark publish).
pipeline:
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'TestFsyncFailure|TestCommitFlushFailure|TestAutoCheckpointFailure|TestCheckpointOverlapsCommitters|TestCommitBetweenFlushAndFenceSurvivesCrash' ./internal/core/
	CRASH_SCHEDULES=$(CRASH_SCHEDULES) $(GO) test -race -count=1 -run 'TestCrashDuringPipelineCommit|TestCrashAtWatermarkPublish' .

# The clustering stack under the race detector: placement-policy unit
# tests, the logical-invisibility differential, the clustered-compaction
# crash matrix, the OO1 generator determinism pin, and the access-tracker
# tests behind heat-ordered placement.
oo1:
	$(GO) test -race -count=1 -run 'TestAccessTracker' ./internal/obs/
	$(GO) test -race -count=1 -run 'TestRewriteSegmentOrdered' ./internal/storage/
	$(GO) test -race -count=1 -run 'TestComposite|TestHeat|TestCluster' ./internal/maint/
	$(GO) test -race -count=1 -run 'TestOO1' ./internal/bench/
	$(GO) test -race -count=1 -run 'TestClusteredRewrite|TestSnapshotPinnedAcrossClusteredRewrite|TestCrashDuringClusteredCompaction' .

# The wire server stack under the race detector: protocol codec units
# (including the junk-buffer decoder fuzz), client/server parity and
# transaction semantics, admission-control sheds, panic isolation, idle
# eviction with lock release, the malformed/oversized-frame fuzz, and
# the drain-under-load regression (zero committed-transaction loss
# across shutdown + restart).
server:
	$(GO) test -race -count=1 ./internal/server/...

# The sharding layer under the race detector: consistent-hash ring and
# global-OID translation units, scatter-gather parity against a single
# database, owner-routed object operations, per-class placement, remote
# federation-source parity, and the fault-injection suite (member down
# mid-scatter -> typed partial failure; member crash + restart mid-write
# storm -> no acked write lost).
shard:
	$(GO) test -race -count=1 ./internal/shard/
	$(GO) test -race -count=1 -run 'TestPushdown' ./internal/federation/

# The full pre-merge gate: compile, static checks, formatting drift, the
# benchmark module, ONE pass of the whole test suite under the race
# detector, and the crash matrices at CRASH_SCHEDULES breadth. The focused
# targets above (maint, mvcc, pipeline, oo1, server, shard) re-run subsets
# of exactly those two and are for working on one subsystem, not for the
# gate.
verify: build vet fmtcheck metrics-lint benchbuild race crash
