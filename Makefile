# Offline-reproducible by construction: the only toolchain needed is go
# itself. apcm-lint builds from the vendored golang.org/x/tools (see
# vendor/modules.txt), so `make lint` needs no network and no GOPATH
# binaries; staticcheck/govulncheck run in CI only (they are external
# tools, installed there).

GO ?= go

.PHONY: all build test race allocs fault fault-repl fuzz lint lint-json lint-smoke lint-baseline bench-smoke loc clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# CI's race job runs this target in both kernel modes (GOFLAGS carries
# the build tag). The second pass races the restore loop at one core and
# with its insert lanes on their own cores.
race:
	$(GO) test -race -timeout 20m . ./shard/ ./broker/ ./metrics/ ./internal/sched/ ./internal/osr/ ./internal/core/ ./internal/bitset/ ./internal/coldstart/
	$(GO) test -race -cpu 1,2,4 -run 'Load|Restore|Checkpoint' . ./shard/

# The allocation gates at both product shapes: at -cpu 1 the default
# engine has no worker pool, at -cpu 2 it has one (which a single-event
# Match must never touch). The heap budget of compiled clusters rides
# along.
allocs:
	$(GO) test -count=1 -run 'ZeroAllocs|DoesNotAllocate|HeapBudget' -cpu 1,2 . ./shard/ ./internal/sched/ ./internal/commitlog/ ./internal/core/

# The fault-injection suite (broker restart/partition/slow-link/reset
# scenarios over internal/faultnet, plus the commit-log crash-recovery
# matrix killing the broker at seeded points in the commit path) under
# the race detector. Scenarios are seeded and deterministic; the seed in
# use is always logged, and APCM_FAULT_SEED replays a specific schedule:
#   APCM_FAULT_SEED=42 make fault
fault:
	$(GO) test -race -timeout 10m -count=1 ./broker/ ./internal/faultnet/ ./internal/commitlog/

# The replication crash matrix in isolation: 100 seeded leader/follower
# schedules (leader killed mid-catch-up, follower crashed mid-ingest by
# commit-log failpoints, asymmetric partitions manufacturing a stale
# leader) under the race detector, verified against the prefix oracle
# and epoch-fencing asserts. Same replay convention:
#   APCM_FAULT_SEED=42 make fault-repl
fault-repl:
	$(GO) test -race -timeout 10m -count=1 -run 'TestReplCrashMatrix|TestRepl|TestAsymmetricPartition|TestFollowerRejects|TestLeaderRetention' ./broker/

# Short smoke runs of every fuzz target: decoder hardening for the wire
# formats (expression/event frames, trace files, checkpoint files,
# commit-log batches, server frames as the client reads them). CI runs the same; longer local sessions:
#   go test -fuzz FuzzScanner -fuzztime 5m ./internal/commitlog/
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeExpression -fuzztime 10s ./expr/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 10s ./expr/
	$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime 10s ./trace/
	$(GO) test -run '^$$' -fuzz FuzzLoadSubscriptions -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzScanner -fuzztime 30s ./internal/commitlog/
	$(GO) test -run '^$$' -fuzz FuzzClientFrame -fuzztime 10s ./broker/

# The apcm analyzer suite (internal/lint) over the whole module.
# Findings listed in .apcm-lint-baseline are reported but tolerated;
# anything new fails. Raw (baseline-blind) equivalent:
#   go build -o apcm-lint ./cmd/apcm-lint && go vet -vettool=$$PWD/apcm-lint ./...
lint:
	$(GO) run ./cmd/apcm-lint ./...

# Rewrite .apcm-lint-baseline from the current findings. Deliberate,
# local-only: CI never regenerates it, and every entry kept must carry a
# justification in DESIGN.md §7.
lint-baseline:
	$(GO) run ./cmd/apcm-lint -write-baseline ./...

# Machine-readable diagnostics (go vet -json format), for CI artifacts.
lint-json:
	$(GO) run ./cmd/apcm-lint -json ./... > apcm-lint.json || true
	@cat apcm-lint.json

# Prove the gate fires: the smoke package seeds one violation per
# analyzer behind a build tag; this target FAILS unless every analyzer
# apcm-lint -list names has a finding in the smoke run's -json output,
# so one analyzer that stops firing cannot hide behind the others.
lint-smoke:
	@names=$$($(GO) run ./cmd/apcm-lint -list) || exit 1; \
	[ -n "$$names" ] || { echo "lint-smoke: apcm-lint -list named no analyzer" >&2; exit 1; }; \
	out=$$($(GO) run ./cmd/apcm-lint -json -tags apcmlint_smoke ./internal/lint/smoke); \
	missing=; \
	for a in $$names; do \
		printf '%s\n' "$$out" | grep -q "\"analyzer\": \"$$a\"" || missing="$$missing $$a"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "lint-smoke: no finding from:$$missing" >&2; exit 1; \
	fi; \
	echo "lint-smoke: all $$(echo $$names | wc -w) analyzers fire"

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . ./internal/commitlog/

# Non-test Go lines: tracked .go files minus vendor/, _test.go files and
# testdata/. Informational; code-diet changes quote this number.
loc:
	@git ls-files '*.go' | grep -v -e '^vendor/' -e '_test\.go$$' -e 'testdata/' | xargs cat | wc -l

clean:
	rm -f apcm-lint apcm-lint.json
