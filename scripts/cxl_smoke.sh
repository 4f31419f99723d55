#!/bin/sh
# Three-tier smoke test: the two shipped DRAM+NVM+CXL design files must run
# end to end through `cmd/baryonsim -design-file`, produce a per-tier traffic
# breakdown with real expander traffic, and the run must be deterministic
# (two invocations byte-identical). A design file carrying the removed
# "slowMemory" key must fail with exit 2. `make cxl-smoke` and CI run this; the
# in-process coverage lives in internal/experiment's tier golden tests, so
# this script is the end-to-end check of the command path itself.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/baryonsim" ./cmd/baryonsim

for spec in internal/experiment/testdata/design_cxl_baryon.json \
    internal/experiment/testdata/design_cxl_unison.json; do
    name=$(basename "$spec" .json)
    "$tmp/baryonsim" -design-file "$spec" -accesses 1000 -json \
        >"$tmp/$name.json"
    for key in '"tiers"' '"tierBytes"' 'CXL'; do
        if ! grep -q "$key" "$tmp/$name.json"; then
            echo "FAIL: $spec output missing $key" >&2
            cat "$tmp/$name.json" >&2
            exit 1
        fi
    done
    # Determinism: a second run must be byte-identical.
    "$tmp/baryonsim" -design-file "$spec" -accesses 1000 -json \
        >"$tmp/$name.rerun.json"
    if ! cmp -s "$tmp/$name.json" "$tmp/$name.rerun.json"; then
        echo "FAIL: $spec runs are not deterministic" >&2
        exit 1
    fi
done

# The removed two-tier shorthand must be rejected, not silently ignored:
# a design file naming "slowMemory" exits 2 and names the field.
printf '{"name":"X-SlowMemory","kind":"baryon","overrides":{"slowMemory":"pcm"}}\n' \
    >"$tmp/removed-key.spec"
status=0
"$tmp/baryonsim" -design-file "$tmp/removed-key.spec" -accesses 1000 \
    >/dev/null 2>"$tmp/removed-key.err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q 'unknown field "slowMemory"' "$tmp/removed-key.err"; then
    echo "FAIL: slowMemory design file: exit $status, want 2 naming the field" >&2
    cat "$tmp/removed-key.err" >&2
    exit 1
fi

echo "cxl-smoke OK: $(ls "$tmp"/*.json | grep -cv rerun) design files ran with tier breakdowns; removed key rejected"
