#!/bin/sh
# Cancellation smoke test: SIGINT a running sweep and assert the graceful
# shutdown contract — a valid partial CSV with cancelled rows, a summary on
# stderr, and a non-zero exit. `make cancel-smoke` and CI run this; the same
# contract is covered in-process by cmd/sweep's tests, so this script is the
# end-to-end check that the signal path itself works. It then drives
# cmd/experiments end to end: output independent of -parallel, one
# -bundle-dir bundle per run, and -timeout reported as cancelled, not failed.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/sweep" ./cmd/sweep
go build -o "$tmp/experiments" ./cmd/experiments

# A grid long enough that SIGINT lands mid-run on any machine.
"$tmp/sweep" -workloads 505.mcf_r -designs Simple,UnisonCache,DICE,Baryon \
    -accesses 500000 -seeds 1,2,3,4 \
    >"$tmp/out.csv" 2>"$tmp/err.log" &
pid=$!

sleep 3
kill -INT "$pid"

# The sweep must exit on its own (non-zero) after the signal.
status=0
wait "$pid" || status=$?
if [ "$status" -eq 0 ]; then
    echo "FAIL: sweep exited 0 after SIGINT" >&2
    exit 1
fi

# The partial CSV must be valid (header + consistent field count) and carry
# cancelled rows.
header=$(head -n1 "$tmp/out.csv")
case "$header" in
workload,design,mode,seed,status,*) ;;
*)
    echo "FAIL: missing/NAK CSV header: $header" >&2
    exit 1
    ;;
esac
fields=$(head -n1 "$tmp/out.csv" | awk -F, '{print NF}')
bad=$(awk -F, -v n="$fields" 'NF != n' "$tmp/out.csv" | wc -l)
if [ "$bad" -ne 0 ]; then
    echo "FAIL: $bad CSV rows with ragged field counts" >&2
    cat "$tmp/out.csv" >&2
    exit 1
fi
if ! awk -F, 'NR > 1 && $5 == "cancelled" { found = 1 } END { exit !found }' "$tmp/out.csv"; then
    echo "FAIL: no cancelled rows in partial CSV" >&2
    cat "$tmp/out.csv" >&2
    exit 1
fi
if ! grep -q "cancelled" "$tmp/err.log"; then
    echo "FAIL: stderr missing cancellation summary" >&2
    cat "$tmp/err.log" >&2
    exit 1
fi

echo "cancel-smoke OK: exit $status, $(wc -l <"$tmp/out.csv") CSV lines, summary: $(tail -n1 "$tmp/err.log")"

# cmd/experiments: the worker count and the bundle observer never change the
# rendered tables. Fig. 10 runs 16 workloads x 2 designs = 32 pairs.
"$tmp/experiments" -quick -only fig10 -parallel 1 >"$tmp/fig10.p1" 2>"$tmp/exp.err"
"$tmp/experiments" -quick -only fig10 -parallel 2 -bundle-dir "$tmp/bundles" \
    >"$tmp/fig10.p2" 2>"$tmp/exp.err"
if ! cmp -s "$tmp/fig10.p1" "$tmp/fig10.p2"; then
    echo "FAIL: experiments -only fig10 output differs between -parallel 1 and 2" >&2
    diff "$tmp/fig10.p1" "$tmp/fig10.p2" >&2 || true
    exit 1
fi
bundles=$(find "$tmp/bundles" -name '*.json' | wc -l)
if [ "$bundles" -ne 32 ]; then
    echo "FAIL: -bundle-dir wrote $bundles bundles, want 32" >&2
    exit 1
fi

# A -timeout that expires mid-experiment is a cancellation, on the pool path
# (fig10) and on the harness-driven runner path (fig3a).
for args in "-only fig10 -timeout 1s" "-only fig3a -timeout 100ms"; do
    status=0
    # shellcheck disable=SC2086 # args is a deliberate word list
    "$tmp/experiments" -quick $args >/dev/null 2>"$tmp/exp.err" || status=$?
    if [ "$status" -eq 0 ]; then
        echo "FAIL: experiments $args exited 0" >&2
        exit 1
    fi
    if ! grep -q '^\[[a-z0-9]* cancelled' "$tmp/exp.err" || grep -q FAILED "$tmp/exp.err"; then
        echo "FAIL: experiments $args not reported as cancelled:" >&2
        cat "$tmp/exp.err" >&2
        exit 1
    fi
done

echo "cancel-smoke OK: experiments -parallel 1/2 identical, $bundles bundles, -timeout cancelled"
