#!/bin/sh
# check.sh runs the same gate as CI (.github/workflows/ci.yml), in the same
# order: cheap static checks first, the race-detector lane last. Each lane
# reports its wall-clock time so slow lanes are visible at a glance.
set -eu
cd "$(dirname "$0")/.."

# Every lane shells out to the go tool, and half of them die with a cryptic
# "module lookup disabled" / "dial tcp" error when the module cache is cold
# and the network is unavailable. Fail fast with a clear message instead.
if ! go list -deps ./... >/dev/null 2>&1; then
	echo 'check.sh: `go list -deps ./...` failed — the build graph cannot be loaded.' >&2
	echo 'check.sh: if the error below mentions downloads or dial/lookup failures,' >&2
	echo 'check.sh: the module cache is cold and there is no network; run `go mod download`' >&2
	echo 'check.sh: somewhere with network access first.' >&2
	go list -deps ./... >/dev/null
	exit 1
fi

LANE_START=0
lane() {
	LANE_START=$(date +%s)
	echo ">> $*"
}
lane_done() {
	echo "   done in $(($(date +%s) - LANE_START))s"
}

lane 'go build ./...'
go build ./...
lane_done

lane 'go vet ./...'
go vet ./...
lane_done

# The analyzer suite carries its own wall-clock budget (override with
# VET_BUDGET=...): a new analyzer that makes the gate crawl fails here
# loudly, with the per-analyzer timing table naming the offender.
lane 'turbdb-vet ./...'
go run ./cmd/turbdb-vet -timings -budget "${VET_BUDGET:-120s}" ./...
lane_done

lane 'go test ./...'
go test ./...
lane_done

# The end-to-end benchmark is a nested module that ./... skips: vet and test
# it on its own so an API change that breaks its build fails here.
lane 'e2ebench module: go vet + go test'
(cd e2ebench && go vet ./... && go test ./...)
lane_done

lane 'go test -race -short ./...'
go test -race -short ./...
lane_done

# Coverage lane: statement-coverage floors for the packages the test-first
# hardening pass owns (cache, txn, query, obs); see scripts/coverage.sh.
lane 'coverage floors (cache, txn, query, obs)'
sh scripts/coverage.sh
lane_done

# The chaos suites (fault injection, node death mid-query) are the tests most
# likely to surface races in the retry/breaker/partial-merge paths; run the
# fault-tolerance packages in full under the race detector so -short filters
# above can never skip them.
lane 'go test -race fault-tolerance packages'
go test -race ./internal/faulttol/... ./internal/faultinject/... ./internal/cluster/... ./internal/wire/...
lane_done

# Replica-failover chaos lane: membership, placement, and the elastic
# suites (replica failover, join/leave rebalances, the 64-node DES
# scenario) by name under the race detector. The packages also run above;
# naming the suites keeps a future -short or -run filter from silently
# dropping them, and gives failover its own lane timing. Every rebalance
# and failover test ends in obs.VerifyNoLeaks, so a leaked goroutine in the
# fan-out or streaming paths fails this lane.
lane 'replica failover chaos (-race)'
go test -race -run 'Failover|Elastic|Replicated|FaultPlan|Scan|Held|Table|Placement|Topology|RangeFailures|ReplicasDown' \
	./internal/membership/... ./internal/mediator/... ./internal/cluster/... ./internal/wire/...
lane_done

# Scheduler stress lane: the concurrent-scheduler suites by name under the
# race detector — admission edge cases (quota exhaustion, cancel-while-
# queued, bounded priority inversion, batch-seal races), the differential
# suites proving shared-scan batching is bit-for-bit identical to
# sequential evaluation, the mid-run node-death stress run, and the
# multi-tenant workload runner. Every suite ends in obs.VerifyNoLeaks, so a
# goroutine leaked by the scheduler's executors or batch fan-out fails here.
lane 'scheduler stress (-race)'
go test -race -run 'Sched|Concurrent' ./internal/sched/... ./internal/workload/...
lane_done

# Benchmark smoke lane: one iteration of every kernel microbenchmark plus
# the scheduler workload lane, so a change that breaks a benchmark (or its
# setup) fails the gate instead of surfacing the next time someone runs
# scripts/bench.sh.
lane 'benchmark smoke (kernel + scheduler packages, 1 iteration)'
go test -run=NONE -bench=. -benchtime=1x ./internal/stencil ./internal/field ./internal/derived ./internal/node ./internal/sched
lane_done

# Binary wire-protocol lane: the golden-frame fixtures (committed bytes must
# decode to the pinned structs and re-encode byte-identically) and the
# differential cross-encoding matrix (every JSON/frame client–server pairing
# must answer Float32bits-identically to the JSON baseline, including the
# dead-node partial-coverage and replica-failover cases) by name, under the
# race detector. The suites also run in the package lanes above; naming them
# keeps a future filter from silently dropping the protocol's conformance
# evidence.
lane 'binary wire protocol: golden frames + differential matrix (-race)'
go test -race -run 'TestGoldenFrames|TestDifferential|TestFrame' ./internal/wire/...
lane_done

# Fuzz smoke lane: a short coverage-guided run of each fuzz target beyond its
# seed corpus (the seeds already ran as plain tests above). `go test -fuzz`
# accepts exactly one matching target per invocation, hence one anchored
# pattern each. Skippable for quick local iterations: SKIP_FUZZ=1 scripts/check.sh
if [ "${SKIP_FUZZ:-0}" = "1" ]; then
	echo '>> fuzz smoke: skipped (SKIP_FUZZ=1)'
else
	lane 'fuzz smoke (10s per target)'
	go test -run=NONE -fuzz='^FuzzEncodeDecode$' -fuzztime=10s ./internal/morton
	go test -run=NONE -fuzz='^FuzzCodeRoundTrip$' -fuzztime=10s ./internal/morton
	go test -run=NONE -fuzz='^FuzzRequestDecode$' -fuzztime=10s ./internal/wire
	go test -run=NONE -fuzz='^FuzzResponseDecode$' -fuzztime=10s ./internal/wire
	go test -run=NONE -fuzz='^FuzzFrameDecode$' -fuzztime=10s ./internal/wire/binproto
	go test -run=NONE -fuzz='^FuzzPointsRoundTrip$' -fuzztime=10s ./internal/wire/binproto
	lane_done
fi

echo 'All checks passed.'
