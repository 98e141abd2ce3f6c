GO ?= go

.PHONY: check fmt vet build build-cmds test race race-parallel bench bench-parallel serve bench-serve bench-ingest bench-merge bench-replay bench-smoke bench-cluster fuzz-decode fuzz-wal chaos chaos-cli chaos-kill chaos-failover chaos-shard-failover cluster-diff

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

# chaos-cli drives the same drill end-to-end through the binaries:
# generate a corpus, then chaos-replay it against a spawned server.
chaos-cli:
	$(GO) run ./cmd/bouncegen -emails 20000 -seed 5 -out /tmp/chaos_corpus.jsonl
	$(GO) run ./cmd/bounced loadgen -in /tmp/chaos_corpus.jsonl -spawn -batch 256 \
		-chaos 'torn=0.3,truncgz=0.2,dup=0.4,loris=0.1,lorispause=1ms' -seed 11 -out -

# chaos-kill is the kill -9 crash-recovery differential over real
# processes: a durable bounced is SIGKILLed at a seeded random point
# mid-stream, restarted on the same -data-dir, the client finishes the
# stream (retrying the in-flight batch), and the final report must be
# byte-identical to an uninterrupted run. See DESIGN.md §11.
chaos-kill:
	./scripts/chaos_kill.sh

# chaos-failover is the primary-death differential over a real replica
# set: a semi-sync durable primary is SIGKILLed mid-stream, its standby
# auto-promotes, the router re-elects it, the client retries the
# in-flight batch through the same router address, and the final report
# must be byte-identical to an uninterrupted single-node run with every
# record classified exactly once. See DESIGN.md §12.
chaos-failover:
	./scripts/chaos_failover.sh

# chaos-shard-failover composes sharding with replication: two shards,
# each a replica set (semi-sync durable primary + shard-aware standby +
# router), behind a coordinator fanning in through the routers. Shard
# 0's primary is SIGKILLed mid-stream; its standby auto-promotes, the
# router re-elects it, the client retries through the outage, and the
# coordinator's merged report must be byte-identical to an
# uninterrupted run with every record classified exactly once. See
# DESIGN.md §14.
chaos-shard-failover:
	./scripts/chaos_shard_failover.sh

# race-parallel focuses the race detector on the parallel delivery,
# streaming, decode, and incremental-snapshot paths and on commit's
# ordering lock from all three of its sources (fast enough for every
# commit).
race-parallel:
	$(GO) test -race -run 'Parallel|WorkerCount|DeliverBatch|Pipe|FromSource|CollectStream|Incremental|WarmSnapshot|Frozen|Decoder|Commit|ApplyBatch|SourceEquivalence' ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-parallel measures DeliverBatch scaling across fan-out widths.
bench-parallel:
	$(GO) test -run xxx -bench 'DeliveryEngineParallel|PipelineBuildStream' .

# serve boots the bounce-analytics service fed by an in-process
# delivery engine run; Ctrl-C drains the queue and flushes a report.
serve:
	$(GO) run ./cmd/bounced -generate

# bench-serve measures HTTP ingest throughput, classify latency, and
# snapshot cold/warm build times: generate a corpus, replay it with
# loadgen against an in-process server, then re-post 1000 head records
# to time the warm (suffix-only) snapshot. Appends one JSON line to
# BENCH_bounced.json.
bench-serve:
	$(GO) run ./cmd/bouncegen -emails 100000 -out /tmp/bench_corpus.jsonl
	$(GO) run ./cmd/bounced loadgen -in /tmp/bench_corpus.jsonl -spawn -warm 1000 -out BENCH_bounced.json
	@tail -1 BENCH_bounced.json

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

# bench-merge measures the coordinator's fan-in: decode + merge of K
# shard partial snapshots (K = 1/2/4/16) versus one cold snapshot over
# the same 100k records, with merged bytes asserted identical to the
# unsharded partial set. Appends one JSON line to BENCH_bounced.json.
bench-merge:
	$(GO) run ./cmd/mergebench -out BENCH_bounced.json
	@tail -1 BENCH_bounced.json

# bench-ingest measures the ingest hot path without HTTP: the decode
# micro-benchmarks (with allocation counts) and the ingestbench tool,
# which appends decode throughput + snapshot cold/warm timings to
# BENCH_bounced.json.
bench-ingest:
	$(GO) test -run xxx -bench 'Unmarshal|DecoderDecode|ParallelDecode' -benchmem ./internal/dataset/
	$(GO) run ./cmd/ingestbench -out BENCH_bounced.json
	@tail -1 BENCH_bounced.json

# bench-smoke is the CI regression gate for the ingest hot path: a
# small-corpus ingestbench run appended to BENCH_bounced.json, diffed
# against the previous ingest row, failing if decode allocations exceed
# one heap allocation per record (the arena decoder's budget).
bench-smoke:
	$(GO) test -run xxx -bench 'Unmarshal|DecoderDecode|ParallelDecode' -benchmem ./internal/dataset/
	$(GO) run ./cmd/ingestbench -emails 20000 -out BENCH_bounced.json
	./scripts/bench_compare.sh -b ingest --max-allocs 1.0

# bench-cluster runs the benchmark's replicated topology once — two
# semi-sync shards with standbys behind routers and a coordinator — as
# a correctness gate: it exits non-zero unless the coordinator's report
# is byte-identical to batch, the standbys applied everything and no
# operation failed. The numbers are printed, not asserted.
bench-cluster:
	bash bench/run.sh --workload cluster-2x2 --seed 42 --seconds 4 --trace 0

# fuzz-decode runs the fast-path-decoder-vs-encoding/json fuzzer for a
# short budget (the committed corpus replays in plain `make test`).
fuzz-decode:
	$(GO) test -fuzz FuzzDecoderMatchesEncodingJSON -fuzztime 60s ./internal/dataset/

# fuzz-wal fuzzes the WAL frame walk behind FS.ReadTail: damaged
# segments, arbitrary replay points and stale offset-index marks must
# read exactly as a walk from the segment header does.
fuzz-wal:
	$(GO) test -fuzz FuzzReadTailSegment -fuzztime 60s ./internal/store/

# bench-replay measures crash recovery: rebuild-from-checkpoint+tail
# versus a cold replay of the whole WAL, over the same 100k-record log,
# with both end states asserted byte-identical before timing is
# reported. Appends one JSON line to BENCH_bounced.json.
bench-replay:
	$(GO) run ./cmd/replaybench -out BENCH_bounced.json
	@tail -1 BENCH_bounced.json
