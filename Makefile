GO ?= go

# Crash matrix breadth for `make crash`: how many crash points
# TestCrashMatrix takes from each workload phase (the test's default is
# 10, 61 schedules; 21 gives 121 — the one-op open and 15-op abort phases
# give all they have). Override: make crash CRASH_SCHEDULES=60
CRASH_SCHEDULES ?= 21

.PHONY: build test vet fmtcheck race bench benchsmoke benchbuild fuzz crash metrics-lint chain-lint decode-lint verify

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
# (BenchmarkFetch), the query executor's benchmarks (heap-scan aggregate,
# ordered range with LIMIT) and the storage and WAL benchmarks, at the
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

# Static check that objects are decoded only below the engine's two raw
# reads (core.DB.FetchObject, ScanObjects): no non-test file outside
# internal/core, internal/storage and internal/model names DecodeObject or
# ScanImages (internal/fault may scan images). It also keeps locking inside
# core.Tx: no non-test file outside internal/core and internal/txn names
# the lock manager's LockInstance*, LockClass* or LockHierarchyRead. And it
# keeps unowned bytes where they are made safe: no non-test file outside
# internal/storage and internal/core names Store.View (its payload aliases
# a pinned page), and none outside internal/model imports unsafe (the one
# exception is internal/obs/obs.go). Go/parser walks of the module
# (TestOnlyTheEngineDecodes, TestPinnedReadsStayInTheEngine in
# internal/core/decodelint_test.go).
decode-lint:
	$(GO) test -count=1 -run '^(TestOnlyTheEngineDecodes|TestPinnedReadsStayInTheEngine)$$' ./internal/core/

# The crash-recovery matrices under the race detector, at pre-merge breadth:
# every schedule crashes the engine at a distinct I/O op, named by its
# workload phase and its index within that phase, and verifies the
# recovery invariants after reopening (crash_test.go, internal/fault). The
# pattern takes in every TestCrash* sweep of the root package — the
# per-phase census table, compaction, drop class, MVCC, commit pipeline,
# checkpoint root swap, the pinned regressions.
crash:
	CRASH_SCHEDULES=$(CRASH_SCHEDULES) $(GO) test -race -count=1 -run 'TestCrash' .

# The full pre-merge gate: compile, static checks, formatting drift, the
# benchmark module, ONE pass of the whole test suite under the race
# detector, the crash matrices at CRASH_SCHEDULES breadth, and one pass of
# every benchmark. To work on one subsystem, run its tests directly, e.g.
# `go test -race -count=1 ./internal/mvcc/`.
verify: build vet fmtcheck metrics-lint chain-lint decode-lint benchbuild race crash benchsmoke
