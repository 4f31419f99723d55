# Standard verification pipeline. `make check` runs every local check, and
# CI runs it once per push. Beside it CI runs gofmt, lint with a pinned
# staticcheck, a traced-run smoke, plain `go test ./...` and a race stress of
# the service lifecycle. The hot-path allocation gate is TestSingleRunAllocs,
# part of every `go test`.

GO ?= go

.PHONY: build vet lint test bench-test race bench fuzz-smoke examples-smoke cancel-smoke cxl-smoke metrics-smoke report-smoke serve-smoke chaos-smoke check

# Pinned staticcheck version; CI installs exactly this, so lint results are
# reproducible. Update deliberately alongside toolchain bumps.
STATICCHECK_VERSION ?= 2024.1.1

build:
	$(GO) build ./...

# bench/ is its own Go module, so the root ./... does not reach it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Runs staticcheck when available (PATH or GOPATH/bin), otherwise prints how
# to get it and succeeds — offline and fresh checkouts must not fail the
# pipeline on a missing optional tool. CI installs the pinned version first,
# so there lint findings do fail.
lint:
	@sc=$$(command -v staticcheck || echo "$$($(GO) env GOPATH)/bin/staticcheck"); \
	if [ -x "$$sc" ]; then \
		echo "staticcheck ./..."; \
		"$$sc" ./...; \
	else \
		echo "staticcheck not installed; skipping lint" >&2; \
		echo "install with: $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; \
	fi

test:
	$(GO) test ./...

# bench/ is its own Go module (the end-to-end benchmark), so the root
# `go test ./...` skips it; this runs its seed-1 bundle-digest,
# request-generator and traced-wrapper tests.
bench-test:
	cd bench && $(GO) test ./...

# The experiment suite under the race detector is CPU-bound and can exceed
# go test's default 10m per-package timeout on small machines.
race:
	$(GO) test -race -timeout 40m ./...

# One-iteration benchmark smoke: the single-run benchmarks, the cache
# hierarchy, bundle marshal/decode, the hybrid engine's migration swap, the
# store's first line writes, datagen's line content, the compressor's
# aligned fit trial and the result store's verified disk hit must still
# build and run. Timing comparisons belong to bench/ (see README
# "Benchmarks and the allocation gate").
bench:
	$(GO) test -run '^$$' -bench SingleRun -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench HierarchyAccess -benchtime 1x ./internal/cache
	$(GO) test -run '^$$' -bench 'MarshalCanonical|Decode|Key' -benchtime 1x ./internal/report
	$(GO) test -run '^$$' -bench 'EngineSwap|StoreWriteVersion' -benchtime 1x ./internal/hybrid
	$(GO) test -run '^$$' -bench FillLine -benchtime 1x ./internal/datagen
	$(GO) test -run '^$$' -bench FitsWithin -benchtime 1x ./internal/compress
	$(GO) test -run '^$$' -bench StoreGetDisk -benchtime 1x ./internal/service

# Short native-fuzz bursts over the compressor round-trips, the design-file
# Overrides schema, the configs Validate accepts (each must run under every
# kind), the service's job-decode and store-entry verification surfaces,
# and the strict bundle decoder (go test allows one -fuzz target per
# invocation, hence the loops).
FUZZTIME ?= 10s
fuzz-smoke:
	for t in FuzzFPCRoundTrip FuzzBDIRoundTrip; do \
		$(GO) test ./internal/compress -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzOverridesJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzConfigRuns -fuzztime $(FUZZTIME)
	for t in FuzzJobDecode FuzzStoreVerify; do \
		$(GO) test ./internal/service -run '^$$' -fuzz $$t -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/report -run '^$$' -fuzz FuzzBundleDecode -fuzztime $(FUZZTIME)

# Runs every examples/* program: each must exit 0, and quickstart must read
# its written line back (see scripts/examples_smoke.sh).
examples-smoke:
	sh scripts/examples_smoke.sh

# End-to-end graceful-shutdown check: SIGINT a running sweep, assert a valid
# partial CSV + non-zero exit (see scripts/cancel_smoke.sh).
cancel-smoke:
	sh scripts/cancel_smoke.sh

# End-to-end three-tier check: the shipped DRAM+NVM+CXL design files run
# through cmd/baryonsim -design-file deterministically with a per-tier
# traffic breakdown (see scripts/cxl_smoke.sh).
cxl-smoke:
	sh scripts/cxl_smoke.sh

# End-to-end observability check: scrape /metrics from a live run and lint it
# with the in-repo OpenMetrics validator, then lint the -metrics-out file.
# Loopback only, so it passes offline (see scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# End-to-end regression-gate check: two identical runs produce byte-identical
# bundles, cmd/runreport self-diffs clean, and a tampered counter makes it
# exit non-zero (see scripts/report_smoke.sh).
report-smoke:
	sh scripts/report_smoke.sh

# End-to-end job-server check: baryonsimd serves a repeated submission from
# the result cache byte-identically, drains cleanly on SIGTERM, reloads its
# store cold after a restart, and holds >=50% hit rate under a mixed load
# (see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end crash-safety and overload check: kill -9 the daemon mid-flight,
# corrupt and truncate store entries, flood it open-loop past capacity — it
# must recover, quarantine, self-heal byte-identically and shed load with
# 429s that retrying clients converge through (see scripts/chaos_smoke.sh).
chaos-smoke:
	sh scripts/chaos_smoke.sh

check: build vet lint race bench-test bench fuzz-smoke examples-smoke cancel-smoke cxl-smoke metrics-smoke report-smoke serve-smoke chaos-smoke
