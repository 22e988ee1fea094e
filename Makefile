GO ?= go

.PHONY: all ignored-go build test vet staticcheck govulncheck race chaos fuzz-smoke bench bench-compare verify loc

all: verify

build:
	$(GO) build ./...

# Fails when .gitignore hides a Go source file: such a file builds here
# but is never committed, so a clean checkout would not build.
ignored-go:
	@ignored=$$(git ls-files --others --ignored --exclude-standard -- '*.go'); \
	if [ -n "$$ignored" ]; then \
		echo "Go sources hidden by .gitignore:"; echo "$$ignored"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis beyond go vet. Skips with a notice when the staticcheck
# binary is not on PATH (nothing is downloaded here); CI installs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Known-vulnerability scan of the module and its (stdlib) call graph. Like
# staticcheck, it is gated on the binary being present so offline/airgapped
# builds are not blocked; CI installs it.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Chaos gate: the seeded fault-injection suite (panic isolation,
# quarantine, watchdog, deadline-bounded Close, and the cluster
# budget-exchange invariant under injected network faults) plus the
# adversarial-overload suite (UDP floods, flash crowds, mixed-RTT swarms,
# short-flow storms against the load-shed plane) and the conformance-audit
# suite (exact reconciliation against injected over-admission) repeated
# under the race detector. Seeded draws make every repetition identical,
# so -count=3 checks the engine, not the dice.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|Fault|Control|Overload|Storm|Flood|Flash|Audit' ./internal/mbox/ ./internal/faultinject/ ./internal/cluster/ ./internal/workload/

# Ten-second smoke run of every fuzz target (seed corpus + a short burst of
# generated inputs); full fuzzing sessions run the targets individually.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Base-vs-head datapath benchmark comparison in a throwaway worktree;
# fails on a >10% mean pkts/sec regression. benchstat adds a statistical
# summary when installed — nothing is downloaded here.
bench-compare:
	scripts/bench-compare.sh

# Net production lines of Go: tracked sources minus tests and the
# perfbench module. Each change reports this figure before and after.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^perfbench/' | xargs cat | wc -l

# The gate CI runs: ignored-source check + build + vet + staticcheck +
# govulncheck + race-enabled tests + chaos suite + fuzz smoke.
verify: ignored-go build vet staticcheck govulncheck race chaos fuzz-smoke
