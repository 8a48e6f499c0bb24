# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make lint` is the one to run before
# pushing — it includes extravet, the repo's own invariant checkers.

GO ?= go

.PHONY: build test race lint vet fuzz bench work-gate bench-smoke crash-stress

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# extravet enforces the concurrency/determinism contracts documented in
# DESIGN.md ("Statically enforced invariants"). It needs no tools
# outside the repo and the standard distribution. The second pass loads
# the deadlockcheck build so the analyzers also see the instrumented
# lock wrappers and the sentinel itself.
lint: vet
	$(GO) run ./cmd/extravet ./...
	$(GO) run ./cmd/extravet -tags deadlockcheck ./...

vet:
	$(GO) vet ./...

# 30-second fuzz smokes: parse/print/reparse stability over the EXCESS
# parser, generated retrieves checked against the reference evaluator
# (oracle_test.go), and the same with each text run cold and then
# answered by the front-end memo.
fuzz:
	$(GO) test -fuzz=FuzzParsePrintReparse -fuzztime=30s ./internal/excess/parse/
	$(GO) test -run '^$$' -fuzz=FuzzRetrieve -fuzztime=30s .
	$(GO) test -run '^$$' -fuzz=FuzzShapeMemo -fuzztime=30s .

# One run each of the join, aggregate, access-method, compiled-filter,
# per-row scan, concurrency, compile-once, tracing, group-commit and
# scan/parse layer benchmarks: a smoke test that keeps them running
# (-benchtime=1x), not a measurement.
bench:
	$(GO) test -short -run '^$$' -bench 'Join|Aggregate|AccessMethod|RefChase|ExprFilter|ScanPerRow|BindingClone|WriterInterference|ParallelRead|CompileOnce|KeyedLookup|Tracing|GroupCommit|ScanStatement|ParseStatement' -benchtime=1x ./...

# The gate on what repeats exactly: allocations per scanned row, a hash
# join that builds on the smaller side and whose probe fetches each
# referenced department once (the reference memo), commit and range-write work
# independent of database size, a plan-cache hit
# that compiles nothing, ad-hoc literals that share one cached shape and
# skip the parser, a $n key that bounds its index probe, tracing that allocates nothing
# when off, reads — a retrieve's, a write statement's read phase, or
# define index's backfill — that leave nothing for a freeze to seal,
# writes whose commit decodes no record and seals only the member-list
# chunks written (only an extent member has a place in a member list:
# an own-ref component, a variable and a set element are working values
# alone, and sixty single-element commits to one set decode and seal no
# chunk), an update that keeps its member's place, a key replace that
# boxes no stored field afresh, the live heap and heap objects a loaded
# company holds per object, and indexes built in one go: heap objects per
# node, not per entry, a unique one refusing an existing duplicate, and
# a bulk-built tree that reads and writes as one built by inserts.
# Wall clock is left to paired runs of bench/. No -race: the race
# detector perturbs allocation counts, and scanalloc_test.go is built
# only without it.
work-gate:
	$(GO) test -count=1 -v -run '^(TestScanAllocsPerRow|TestResultAllocsPerRow|TestHashJoinBuildsSmallerSide|TestHashJoinProbeDerefsPerTarget|TestRangeReplaceWorkIndependentOfSize|TestCommitWorkIndependentOfSize|TestRangeUpdateWorkIndependentOfSize|TestPlanCacheHitCompilesNothing|TestZeroAllocWhenDisabled|TestAdhocLiteralsShareOnePlan|TestAdhocShapeSkipsParser|TestParamKeyUsesIndex|TestSnapshotReadsFreezeNothing|TestWriteReadPhaseWorkIndependentOfSize|TestDefineIndexSealsNothing|TestWriteDecodesNothing|TestElemCommitsDecodeNothing|TestUpdateKeepsChunkPosition|TestReplaceKeepsScanOrder|TestHeapPerObject|TestKeyReplaceAllocs|TestDefineIndexHeapObjects|TestUniqueIndexOverDuplicates|TestBTreeBuildMatchesInserts|TestBTreeBuildUnique|TestBTreeBuildNodes|TestBTreeRangeKeysStayValid)$$' . ./internal/object/ ./internal/storage/ ./internal/trace/

# The repository benchmark (bench/, a module of its own that drives the
# engine through its public and internal APIs) must keep compiling and
# its smoke run must pass: an engine API change that breaks the harness
# fails here, not in the benchmark run. Never edited by a change that
# claims a gain.
bench-smoke:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Durability stress, the same steps as CI's crash-stress job: the WAL
# torn-tail corpus, the recovery round-trips and atomic load, and the
# crash harness (kill-and-reopen rounds under the race detector).
# EXTRA_CRASH_ROUNDS scales the number of kill cycles. The final round
# runs under the deadlockcheck build tag: the runtime lock-order
# sentinel panics on any rank inversion the workload provokes.
crash-stress:
	$(GO) test -race -count=2 ./internal/wal/ ./internal/storage/
	$(GO) test -race -count=1 -run 'TestWAL|TestDumpFileAtomic|TestLoadIsAtomic' .
	EXTRA_CRASH_ROUNDS=12 $(GO) test -race -count=1 -run 'TestCrashRecovery' -v .
	$(GO) test -tags deadlockcheck -count=1 ./internal/deadlock/
	EXTRA_CRASH_ROUNDS=2 $(GO) test -tags deadlockcheck -count=1 -run 'TestCrashRecovery' .
