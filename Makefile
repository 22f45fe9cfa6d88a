GO ?= go

# Crash matrix breadth for `make crash`: how many crash points
# TestCrashMatrix takes from each workload phase (the test's default is
# 10, 61 schedules; 21 gives 121 — the one-op open and 15-op abort phases
# give all they have). Override: make crash CRASH_SCHEDULES=60
CRASH_SCHEDULES ?= 21

.PHONY: build test vet fmtcheck race bench benchsmoke benchbuild fuzz crash lifecycle replan metrics-lint chain-lint decode-lint verify

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

# The experiment families (bench_test.go, bench_system_test.go: E1-E19
# and segment compaction), the engine's point read of an OO1 part
# (BenchmarkFetch), the query executor's benchmarks (the same aggregate
# statement as a heap scan with no index, BenchmarkScanAggregate, and
# folded from a class-hierarchy index, BenchmarkIndexAggregate; ordered
# range with LIMIT, and the same range read index-only,
# BenchmarkIndexOnlyRange) and the storage and WAL benchmarks, at the
# default benchtime. -p 1: one package's benchmarks at a time.
# Narrow with e.g. `go test -run '^$' -bench 'E17' .`
bench:
	$(GO) test -p 1 -run '^$$' -bench . -benchmem . ./internal/core/ ./internal/query/ ./internal/storage/ ./internal/wal/

# Every benchmark of the module once (-benchtime 1x), so a family whose
# setup breaks or whose precondition fails is caught by verify, not by the
# next person who runs it. About 10 s on the 2-vCPU host.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# Static check that only the chain walker follows a page's Next link in
# internal/storage: a go/parser walk of the package source
# (TestOnlyTheWalkerFollowsNext in chainlint_test.go).
chain-lint:
	$(GO) test -count=1 -run '^TestOnlyTheWalkerFollowsNext$$' ./internal/storage/

# Static check that objects are decoded only inside the engine's reads
# (the point reads core.DB.Fetch and the core.Tx reads, the scans
# core.DB.Scan and core.Tx.Scan): no non-test file outside internal/core,
# internal/storage and internal/model names DecodeObject or ScanImages
# (internal/fault may scan images), and none outside internal/core,
# internal/query, internal/checkout and internal/composite names the raw
# Tx.ScanLocked, which is sound only under its caller's locks. It also
# keeps locking inside core.Tx: no non-test file
# outside internal/core and internal/txn names the lock manager's
# LockInstance*, LockClass* or LockHierarchyRead. And it keeps unowned
# bytes where they are made safe: no non-test file outside internal/storage
# and internal/core names Store.View (its payload aliases a pinned page),
# exactly one function in internal/core does (the one point read, DB.read),
# and none outside internal/model imports unsafe (the one exception is
# internal/obs/obs.go). And it keeps one decoding cursor: no non-test file
# outside internal/model and internal/storage calls encoding/binary's
# Uvarint, so every binary image decodes through model.Reader. Go/parser
# walks of the module (TestOnlyTheEngineDecodes,
# TestPinnedReadsStayInTheEngine, TestOneDecodingCursor in
# internal/core/decodelint_test.go). And it keeps one index walker: no
# non-test file of internal/query but walk.go calls core.Tx's
# SnapshotOverlayOIDs or index.Index's Scan, Summarize, Edge or Unkeyed,
# none but bind.go calls schema.Catalog's ResolveAttr, and none but plan.go
# calls schema.Catalog's BindPath (a plan binds each path over its scope
# once), matched on the receiver's type (TestOneIndexWalk in
# internal/query/walklint_test.go, which type-checks the package).
decode-lint:
	$(GO) test -count=1 -run '^(TestOnlyTheEngineDecodes|TestPinnedReadsStayInTheEngine|TestOneDecodingCursor)$$' ./internal/core/
	$(GO) test -count=1 -run '^TestOneIndexWalk$$' ./internal/query/

# The crash-recovery matrices under the race detector, at pre-merge breadth:
# every schedule crashes the engine at a distinct I/O op, named by its
# workload phase and its index within that phase, and verifies the
# recovery invariants after reopening (crash_test.go, internal/fault). The
# pattern takes in every TestCrash* sweep of the root package — the
# per-phase census table, compaction, drop class, MVCC, commit pipeline,
# checkpoint root swap, the pinned regressions.
crash:
	CRASH_SCHEDULES=$(CRASH_SCHEDULES) $(GO) test -race -count=1 -run 'TestCrash' .

# The session-lifecycle tests of the served door, ten times under the race
# detector: pipelined requests answered in order, a busy session not
# evicted, idle eviction, and drain (idle and mid-request sessions, under
# load, with a straggler's transaction). They exercise the ordering of the
# one-goroutine session loop — read deadline, drain flag, read — and run
# in about 13 s on the 2-vCPU host.
lifecycle:
	$(GO) test -race -count=10 -run '^(TestPipelinedRequestsAnsweredInOrder|TestBusySessionNotEvicted|TestIdleSessionEviction|TestDrainKicksIdleAndBusySessions|TestDrainUnderLoad|TestDrainIdleSessions)$$' ./internal/server/

# DDL racing statements, ten times under the race detector: one goroutine
# drops and re-creates an index, or takes a class out of a hierarchy and
# puts it back, while readers run statements through DB.Query,
# DB.QuerySnapshot and Session.Query; a statement plans again when the
# schema epoch moves under it and never reads an index still being
# populated (TestIndexChurnUnderQueries, TestSchemaChurnUnderSnapshots;
# about 5 s).
replan:
	$(GO) test -race -count=10 -run '^(TestIndexChurnUnderQueries|TestSchemaChurnUnderSnapshots)$$' .

# The full pre-merge gate: compile, static checks, formatting drift, the
# benchmark module, ONE pass of the whole test suite under the race
# detector, the session-lifecycle tests and the DDL race ten times each,
# the crash matrices at CRASH_SCHEDULES breadth, and one pass of every
# benchmark. To work on one subsystem, run its tests directly, e.g.
# `go test -race -count=1 ./internal/mvcc/`.
verify: build vet fmtcheck metrics-lint chain-lint decode-lint benchbuild race lifecycle replan crash benchsmoke
