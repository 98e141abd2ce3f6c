GO ?= go

.PHONY: check fmt vet build build-cmds test loc bench-allocs race race-parallel bench bench-parallel serve bench-cluster bench-durable bench-report fuzz-decode fuzz-encode fuzz-wal fuzz-wire fuzz-typo fuzz-similarity fuzz-ebrc fuzz-partial fuzz-state fuzz-checkpoint fuzz-smoke chaos chaos-kill chaos-failover chaos-shard-failover cluster-diff

# check is the tier-1 gate plus static analysis and formatting.
check: fmt vet build build-cmds test

# fmt fails if any file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# build-cmds links every binary into bin/ (build ./... alone does not
# link main packages).
build-cmds:
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

# loc prints the code-line count the simplicity PRs quote: non-blank,
# non-comment lines of non-test Go outside bench/ — in total, and for
# the service (internal/bounced + cmd/bounced/main.go). Reported, never
# asserted.
loc:
	@count() { cat "$$@" | grep -cvE '^[[:space:]]*(//.*)?$$'; }; \
	echo "code lines, total:   $$(count $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'))"; \
	echo "code lines, bounced: $$(count $$(ls internal/bounced/*.go | grep -v _test.go) cmd/bounced/main.go)"

# bench-allocs prints what one cold report allocates in process — a
# snapshot of the benchmark's 80k emails, Detect, every section, no
# environment — and beside it one delta report, after 1,000 more
# records on a warm accumulator, as ns/op, B/op and allocs/op.
# Reported, never asserted.
bench-allocs:
	$(GO) test -run '^$$' -bench 'ReportCold/no-env|ReportDelta/no-env' -benchtime 1x -benchmem .

# race runs the whole suite under the race detector.
race:
	$(GO) test -race ./...

# chaos is the deterministic fault-injection soak: replay the corpus
# through a fault-injecting server with a fault-injecting client (torn
# bodies, truncated gzip, slow-loris, duplicate replays, 429 sheds)
# across a fixed seed sweep, asserting the final report stays
# byte-identical to a clean batch run and no record is lost or
# double-counted — plus the commit-path regressions (overlapping
# duplicates of one batch ID, synced accepted prefix, a replicated unit
# larger than the standby's queue). See DESIGN.md §9.
chaos:
	$(GO) test -run 'TestChaos|TestBatch|TestServerFault|TestReadDeadline|TestDrainZeroLoss|TestCrashRecovery|TestDurable|TestCommit|TestApplyBatchLarger' -count=1 -v ./internal/bounced/

# The three kill -9 differentials over real processes are rows of one
# table in scripts/drill: each boots its topology on kernel-chosen
# ports, SIGKILLs a node at a seeded point mid-stream while the client
# retries its idempotent batches through the outage, and requires the
# served report to be byte-identical to batch over the same records.
#
# chaos-kill: a durable bounced is SIGKILLed and restarted on the same
# -data-dir; the second boot must recover from a checkpoint plus the
# WAL tail, not a cold replay. See DESIGN.md §11.
chaos-kill:
	$(GO) run ./scripts/drill kill

# chaos-failover: the semi-sync durable primary of a replica set is
# SIGKILLed; its standby must promote itself at epoch >= 2, the router
# must re-elect it, and the survivor must have classified every record
# exactly once. See DESIGN.md §12.
chaos-failover:
	$(GO) run ./scripts/drill failover

# chaos-shard-failover: two shards, each such a replica set, behind a
# coordinator fanning in through the routers. Shard 0's primary is
# SIGKILLed; the same promotion and re-election must follow, the
# coordinator's stats must show the bumped epoch, and its merged report
# is the one compared. See DESIGN.md §14.
chaos-shard-failover:
	$(GO) run ./scripts/drill shard-failover

# race-parallel focuses the race detector on the parallel delivery,
# streaming, decode, and incremental-snapshot paths, on commit's
# ordering lock from all three of its sources, on what the ingest path
# pools (a Decoder handed from one request to the next, tail payloads
# cut from shared chunks) and on concurrent reports and partial
# aggregates over one cached study, on one partial set rendered by
# concurrent readers, on a study rendered while the next snapshots copy
# its verdicts and extend its fold of clean records, on the squat scan
# shared by concurrent reports, on records that land between a
# coordinator's two fan-in rounds, and on /metrics and /v1/stats scraped
# while a durable node applies, checkpoints, promotes and ingests (fast
# enough for every commit).
race-parallel:
	$(GO) test -race -run 'Parallel|WorkerCount|DeliverBatch|Pipe|FromSource|Incremental|Frozen|Decoder|ReadTailPayloads|Commit|ApplyBatch|SourceEquivalence|StudyDurations|StudyPartials|StudySquats|SharedPartialSet|BetweenRounds|ScrapeWhileServing' ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-parallel measures DeliverBatch scaling across fan-out widths.
bench-parallel:
	$(GO) test -run xxx -bench 'DeliveryEngineParallel|PipelineBuildStream' .

# serve boots the bounce-analytics service fed by an in-process
# delivery engine run; Ctrl-C drains the queue and flushes a report.
serve:
	$(GO) run ./cmd/bounced -generate

# cluster-diff is the sharded-vs-single differential: partial-set
# merge properties (associativity, commutativity, random merge
# orders), sharded bounceanalyze report identity, and the 3-shard +
# coordinator topology over real HTTP — every merge order must be
# byte-identical to one node ingesting the full stream, including the
# seed-swept torn-mid-batch chaos variant, exact line numbers in shard
# 400s, and the memory/durable/standby source-equivalence differential.
# See DESIGN.md §10.
cluster-diff:
	$(GO) test -run 'TestPartial|TestUnmarshalPartial|TestShardedPartial|TestCluster|TestSourceEquivalence' -count=1 -v \
		./internal/analysis/ ./internal/bounced/ .

# bench-cluster runs the benchmark's replicated topology once — two
# semi-sync shards with standbys behind routers and a coordinator — as
# a correctness gate: it exits non-zero unless the coordinator's report
# is byte-identical to batch, the standbys applied everything and no
# operation failed. The numbers are printed, not asserted.
bench-cluster:
	bash bench/run.sh --workload cluster-2x2 --seed 42 --seconds 4 --trace 0

# bench-durable runs the benchmark's durable node once as the same kind
# of gate over the checkpoint path: it checkpoints, SIGKILLs, restarts
# on the data dir and re-posts the last X-Batch-Id, and exits non-zero
# unless every acked record is back, the retry dedups and the report is
# byte-identical to batch.
bench-durable:
	bash bench/run.sh --workload durable-batch --seed 42 --seconds 4 --trace 0

# bench-report runs the benchmark's mixed workload once as the same kind
# of gate over the report path under load: a closed-loop reader fetches
# full reports from a node an open-loop writer is feeding, and the run
# exits non-zero unless the last served report is byte-identical to
# batch and no operation failed.
bench-report:
	bash bench/run.sh --workload report-mixed --seed 42 --seconds 4 --trace 0

# fuzz-decode runs the fast-path-decoder-vs-encoding/json fuzzer for a
# short budget (the committed corpus replays in plain `make test`).
fuzz-decode:
	$(GO) test -fuzz FuzzDecoderMatchesEncodingJSON -fuzztime 60s ./internal/dataset/

# fuzz-encode runs the hand-written record encoder against
# encoding/json, and the decoder against the encoder, for the same
# budget; its seeds (every NDR template, the escapes, a 16 MB line) and
# committed corpus replay in plain `make test`.
fuzz-encode:
	$(GO) test -fuzz FuzzAppendJSONMatchesMarshal -fuzztime 60s ./internal/dataset/

# fuzz-wal fuzzes the WAL frame walk behind FS.ReadTail: damaged
# segments, arbitrary replay points and stale offset-index marks must
# (the tip, the newest unit's, among them) read exactly as a walk from
# the segment header does.
fuzz-wal:
	$(GO) test -fuzz FuzzReadTailSegment -fuzztime 60s ./internal/store/

# fuzz-wire fuzzes the BRTL tail-stream reader on store's frame codec:
# a TailWriter stream cut anywhere and continued with arbitrary bytes
# must return every whole unit before the cut, unchanged, and allocate
# only what the bytes it was given justify (the committed corpus, a
# 45-byte stream whose headers claim gigabytes among it, replays in
# plain go test).
fuzz-wire:
	$(GO) test -fuzz FuzzTailReader -fuzztime 60s ./internal/replication/

# fuzz-typo fuzzes typo.Classify and ClassifyLocal, which decide by the
# edit before they generate, against a plain scan of the generated
# candidates: same membership, same kind, for any pair of names.
fuzz-typo:
	$(GO) test -fuzz FuzzClassifyMatchesGeneration -fuzztime 60s ./internal/typo/

# fuzz-similarity fuzzes typo.Similarity, whose distance rows live on
# the stack for short names, against a plain three-row table kept in
# the test: the same similarity for any pair of names.
fuzz-similarity:
	$(GO) test -fuzz FuzzSimilarityMatchesTable -fuzztime 60s ./internal/typo/

# fuzz-ebrc fuzzes the in-place token walk ebrc.Train and Predict run
# against ebrc.Tokenize, which stays the definition: same tokens, same
# order, same vocabulary ids, for arbitrary bytes.
fuzz-ebrc:
	$(GO) test -fuzz FuzzTokensMatchTokenize -fuzztime 60s ./internal/ebrc/

# fuzz-partial fuzzes the two codecs a coordinator and its shards read
# from one another, the PartialSet envelope and the round-2 scope: no
# panic, decoding allocates at most a fixed multiple of its input, a
# decoded set re-encodes to a fixed point, merges, and renders. Each
# new input is minimized for at most 20 runs: a whole report per run
# makes the default minute-long minimization starve the search. The
# committed corpus replays in plain go test.
fuzz-partial:
	$(GO) test -fuzz FuzzUnmarshalPartialSet -fuzztime 60s -fuzzminimizetime 20x .

# fuzz-state fuzzes the Incremental state codec a checkpoint and a
# standby's full resync carry, drain.UnmarshalParser within it: no
# panic, restoring allocates at most a fixed multiple of its input, a
# marshalled state round-trips to equal bytes, and whatever restores
# snapshots. Minimizing is capped as fuzz-partial caps it: uncapped,
# the search stalls at 0 execs/s for most of the minute. The committed
# corpus replays in plain go test.
fuzz-state:
	$(GO) test -fuzz FuzzRestoreIncremental -fuzztime 60s -fuzzminimizetime 20x ./internal/analysis/

# fuzz-checkpoint fuzzes what recovery and a standby's full resync read
# first, store.DecodeCheckpoint with the dedup section's restore and the
# repl section's epoch: no panic, allocation bounded by the input, a
# decoded checkpoint re-encodes to the same bytes (each section once,
# names in order) and a restored dedup window round-trips. Its committed corpus replays in
# plain go test ./internal/bounced/.
fuzz-checkpoint:
	$(GO) test -fuzz FuzzDecodeCheckpoint -fuzztime 60s ./internal/bounced/

# fuzz-smoke runs every fuzz target in the tree for 10 s each, found by
# name, so a new fuzzer joins without an edit here. The committed seeds
# already replay in plain go test; this also searches. Minimizing is
# capped as fuzz-partial caps it.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$t ($$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s -fuzzminimizetime 20x $$(dirname $$f); \
		done; \
	done
