#!/bin/sh
# Cancellation smoke test: SIGINT a running sweep and assert the graceful
# shutdown contract — a valid partial CSV with cancelled rows, a summary on
# stderr, and a non-zero exit. `make cancel-smoke` and CI run this; the same
# contract is covered in-process by cmd/sweep's tests, so this script is the
# end-to-end check that the signal path itself works. It then drives
# cmd/experiments end to end: output independent of -parallel, one
# -bundle-dir bundle per run (a sweep's config points included), and
# -timeout reported as cancelled, not failed. Last, a cmd/baryonsim run cut
# by -timeout must report partial metrics, exit 1 and write no bundle, and
# one whose deadline expires before it starts must exit 1 without a crash.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/sweep" ./cmd/sweep
go build -o "$tmp/experiments" ./cmd/experiments
go build -o "$tmp/baryonsim" ./cmd/baryonsim

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

# Fig. 3(b) sweeps the stage size: 4 workloads x 4 sizes = 16 runs, and each
# must land in its own bundle under its own spec hash.
"$tmp/experiments" -quick -only fig3b -parallel 2 -bundle-dir "$tmp/fig3b" \
    >/dev/null 2>"$tmp/exp.err"
bundles3b=$(find "$tmp/fig3b" -name '*.bundle.json' | wc -l)
hashes3b=$(cat "$tmp"/fig3b/*.bundle.json | grep '"specHash"' | sort -u | wc -l)
if [ "$bundles3b" -ne 16 ] || [ "$hashes3b" -ne 16 ]; then
    echo "FAIL: fig3b -bundle-dir wrote $bundles3b bundles with $hashes3b distinct specHash values, want 16 and 16" >&2
    exit 1
fi

# A -timeout that expires mid-experiment is a cancellation, for a grid
# (fig10) and for a stage-area harness (fig3a) alike.
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

echo "cancel-smoke OK: experiments -parallel 1/2 identical, $bundles bundles, fig3b $bundles3b distinct bundles, -timeout cancelled"

# cmd/baryonsim: -timeout stops the run with a partial report on stdout,
# "run stopped early" on stderr and exit 1; a partial run writes no bundle.
status=0
"$tmp/baryonsim" -accesses 500000 -timeout 300ms -bundle-out "$tmp/partial.bundle.json" \
    >"$tmp/sim.out" 2>"$tmp/sim.err" || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: baryonsim -timeout exited $status, want 1" >&2
    cat "$tmp/sim.err" >&2
    exit 1
fi
if ! grep -q "run stopped early" "$tmp/sim.err" || ! grep -q "^cycles:" "$tmp/sim.out"; then
    echo "FAIL: baryonsim -timeout did not report a partial run" >&2
    cat "$tmp/sim.out" "$tmp/sim.err" >&2
    exit 1
fi
if [ -e "$tmp/partial.bundle.json" ]; then
    echo "FAIL: baryonsim wrote a bundle for a partial run" >&2
    exit 1
fi

# A deadline that expires before the first access leaves nothing to report:
# exit 1 with a message, not a crash on the missing metrics.
status=0
"$tmp/baryonsim" -accesses 1000 -timeout 1ns -v -metrics-out "$tmp/early.metrics.txt" \
    >"$tmp/early.out" 2>"$tmp/early.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "run stopped before it started" "$tmp/early.err"; then
    echo "FAIL: baryonsim -timeout 1ns exited $status, want 1 with \"run stopped before it started\"" >&2
    cat "$tmp/early.err" >&2
    exit 1
fi

echo "cancel-smoke OK: baryonsim -timeout partial report, exit 1, no bundle; expired before start, exit 1"
