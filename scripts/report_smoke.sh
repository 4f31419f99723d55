#!/bin/sh
# Run-report smoke test: the determinism and regression-detection contract of
# the bundle pipeline, end to end through the built commands. Two identical
# runs must produce byte-identical bundles, cmd/runreport must accept the
# pair as clean (exit 0), and a tampered counter must make it exit non-zero.
# A pair's bundle must be the same bytes from cmd/sweep -bundle-dir and
# cmd/baryonsim -bundle-out, and baryonsim must refuse two exports on stdout.
# A replayed trace is keyed by its bytes and value mix, not its path.
# `make report-smoke` and CI run this; the same contract is covered
# in-process by internal/report's and cmd/runreport's tests.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/baryonsim" ./cmd/baryonsim
go build -o "$tmp/runreport" ./cmd/runreport
go build -o "$tmp/sweep" ./cmd/sweep
go build -o "$tmp/tracegen" ./cmd/tracegen

run_bundle() {
    "$tmp/baryonsim" -workload 505.mcf_r -design Baryon \
        -accesses 5000 -warmup 1000 -bundle-out "$1" >/dev/null
}

run_bundle "$tmp/a.bundle.json"
run_bundle "$tmp/b.bundle.json"

if ! cmp -s "$tmp/a.bundle.json" "$tmp/b.bundle.json"; then
    echo "FAIL: identical runs produced different bundle bytes" >&2
    diff "$tmp/a.bundle.json" "$tmp/b.bundle.json" >&2 || true
    exit 1
fi

if ! "$tmp/runreport" "$tmp/a.bundle.json" "$tmp/b.bundle.json" >"$tmp/clean.out"; then
    echo "FAIL: runreport flagged two identical runs" >&2
    cat "$tmp/clean.out" >&2
    exit 1
fi

# Inject a regression: rewrite the headline cycle count and expect a
# non-zero exit naming the metric.
sed 's/"cycles": [0-9]*/"cycles": 1/' "$tmp/b.bundle.json" >"$tmp/tampered.bundle.json"
status=0
"$tmp/runreport" "$tmp/a.bundle.json" "$tmp/tampered.bundle.json" \
    >"$tmp/diff.out" || status=$?
if [ "$status" -eq 0 ]; then
    echo "FAIL: runreport exited 0 on a tampered bundle" >&2
    cat "$tmp/diff.out" >&2
    exit 1
fi
if ! grep -q "cycles" "$tmp/diff.out"; then
    echo "FAIL: runreport did not attribute the regression to cycles" >&2
    cat "$tmp/diff.out" >&2
    exit 1
fi

echo "report-smoke OK: bundles byte-identical, self-diff clean, tamper caught (exit $status)"

# One bundle builder: the same pair bundles to the same bytes through
# cmd/sweep -bundle-dir and cmd/baryonsim -bundle-out.
"$tmp/sweep" -workloads 505.mcf_r -designs Baryon,DICE -seeds 3 -accesses 1000 \
    -bundle-dir "$tmp/bundles" >/dev/null 2>"$tmp/sweep.err"
for design in Baryon DICE; do
    "$tmp/baryonsim" -workload 505.mcf_r -design "$design" -seed 3 -accesses 1000 \
        -bundle-out "$tmp/$design.sim.bundle.json" >/dev/null
    set -- "$tmp"/bundles/"$design"__505.mcf_r__seed3__*.bundle.json
    if [ "$#" -ne 1 ] || ! cmp -s "$1" "$tmp/$design.sim.bundle.json"; then
        echo "FAIL: $design bundle differs between sweep -bundle-dir and baryonsim -bundle-out" >&2
        exit 1
    fi
done

# Two exports on stdout would interleave two formats: usage error (exit 2)
# with nothing written to stdout.
status=0
"$tmp/baryonsim" -accesses 1000 -epoch 500 -epoch-csv - -bundle-out - \
    >"$tmp/two.out" 2>"$tmp/two.err" || status=$?
if [ "$status" -ne 2 ] || [ -s "$tmp/two.out" ]; then
    echo "FAIL: two stdout exports exited $status with $(wc -c <"$tmp/two.out") stdout bytes, want exit 2 and none" >&2
    cat "$tmp/two.err" >&2
    exit 1
fi


# A replay run is named after the trace's bytes and the -workload value mix:
# the same trace under two paths bundles to the same bytes, and the same
# trace under two mixes does not.
"$tmp/tracegen" -replay -n 200 >"$tmp/t.txt"
mkdir "$tmp/elsewhere"
cp "$tmp/t.txt" "$tmp/elsewhere/t2.txt"
replay_bundle() {
    "$tmp/baryonsim" -trace-file "$1" -workload "$2" -accesses 1000 -bundle-out "$3" >/dev/null
}
replay_bundle "$tmp/t.txt" 505.mcf_r "$tmp/replay-a.bundle.json"
replay_bundle "$tmp/elsewhere/t2.txt" 505.mcf_r "$tmp/replay-b.bundle.json"
replay_bundle "$tmp/t.txt" pr.twi "$tmp/replay-twi.bundle.json"
if ! cmp -s "$tmp/replay-a.bundle.json" "$tmp/replay-b.bundle.json"; then
    echo "FAIL: one trace replayed from two paths produced different bundles" >&2
    diff "$tmp/replay-a.bundle.json" "$tmp/replay-b.bundle.json" >&2 || true
    exit 1
fi
if cmp -s "$tmp/replay-a.bundle.json" "$tmp/replay-twi.bundle.json"; then
    echo "FAIL: one trace replayed under two value mixes produced the same bundle" >&2
    exit 1
fi

echo "report-smoke OK: sweep and baryonsim bundles identical for Baryon and DICE, two stdout exports refused, replays keyed by content"
