#!/bin/sh
# Examples smoke test: every program under examples/ must build, run to
# completion and exit 0, and quickstart must read its written line back
# through the controller. `make examples-smoke` runs this; without it the
# examples are only compiled, never run.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for dir in examples/*/; do
    name=$(basename "$dir")
    go build -o "$tmp/$name" "./$dir"
    if ! "$tmp/$name" >"$tmp/$name.out" 2>"$tmp/$name.err"; then
        echo "FAIL: examples/$name exited non-zero" >&2
        cat "$tmp/$name.err" >&2
        exit 1
    fi
done

if ! grep -qF 'read back: "hello, hybrid memory"' "$tmp/quickstart.out"; then
    echo "FAIL: quickstart did not read back its written line" >&2
    cat "$tmp/quickstart.out" >&2
    exit 1
fi

echo "examples-smoke OK: $(ls examples | wc -l | tr -d ' ') examples ran, quickstart read back its line"
