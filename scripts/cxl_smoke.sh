#!/bin/sh
# Three-tier smoke test: the two shipped DRAM+NVM+CXL design files must run
# end to end through `cmd/baryonsim -design-file`, and their run-report
# bundles (`-bundle-out -`) must carry a per-tier traffic breakdown with a
# CXL tier and real expander link traffic. The run must be deterministic
# (two invocations byte-identical). Design files carrying removed keys
# ("slowMemory", "mlpOverlap") must fail with exit 2 and name the key.
# `make cxl-smoke` and CI run this; the in-process coverage lives in
# internal/experiment's tier golden tests, so this script is the end-to-end
# check of the command path itself.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/baryonsim" ./cmd/baryonsim

for spec in internal/experiment/testdata/design_cxl_baryon.json \
    internal/experiment/testdata/design_cxl_unison.json; do
    name=$(basename "$spec" .json)
    "$tmp/baryonsim" -design-file "$spec" -accesses 1000 -bundle-out - \
        >"$tmp/$name.json"
    for key in '"tiers"' '"name": "CXL-' '"cxlLinkBytes"'; do
        if ! grep -q "$key" "$tmp/$name.json"; then
            echo "FAIL: $spec output missing $key" >&2
            cat "$tmp/$name.json" >&2
            exit 1
        fi
    done
    # Determinism: a second run must be byte-identical.
    "$tmp/baryonsim" -design-file "$spec" -accesses 1000 -bundle-out - \
        >"$tmp/$name.rerun.json"
    if ! cmp -s "$tmp/$name.json" "$tmp/$name.rerun.json"; then
        echo "FAIL: $spec runs are not deterministic" >&2
        exit 1
    fi
done

# Removed keys must be rejected, not silently ignored: a design file naming
# the two-tier shorthand "slowMemory" or the now-constant "mlpOverlap" exits 2
# and names the field.
for key in slowMemory mlpOverlap; do
    printf '{"name":"X-Removed","kind":"baryon","overrides":{"%s":1}}\n' "$key" \
        >"$tmp/removed-key.spec"
    status=0
    "$tmp/baryonsim" -design-file "$tmp/removed-key.spec" -accesses 1000 \
        >/dev/null 2>"$tmp/removed-key.err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q "unknown field \"$key\"" "$tmp/removed-key.err"; then
        echo "FAIL: $key design file: exit $status, want 2 naming the field" >&2
        cat "$tmp/removed-key.err" >&2
        exit 1
    fi
done

echo "cxl-smoke OK: $(ls "$tmp"/*.json | grep -cv rerun) design files ran with tier breakdowns; removed keys rejected"
