# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint repolint vet tidy-check bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = everything the CI lint job gates on that runs offline.
# staticcheck/govulncheck run too when installed (CI installs them;
# the dev container may not have network access).
lint: vet repolint tidy-check
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

vet:
	$(GO) vet ./...

# The project's own analyzer suite (DESIGN.md §11), both standalone and
# as a vettool so the unitchecker protocol stays exercised.
repolint:
	$(GO) run ./cmd/repolint ./...
	$(GO) build -o $(CURDIR)/bin/repolint ./cmd/repolint
	$(GO) vet -vettool=$(CURDIR)/bin/repolint ./...

tidy-check:
	$(GO) mod tidy
	@git diff --exit-code go.mod || (echo "go.mod not tidy: run 'go mod tidy'"; exit 1)

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkElectionIndex$$' -benchtime 1x .
