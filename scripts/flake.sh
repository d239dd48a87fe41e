#!/usr/bin/env bash
# Flake hunt: build the test binaries once, then run each of them N times
# on a deliberately oversubscribed box — nproc + 1 busy loops spinning
# beside the suite — and count failures per test.
#
#   scripts/flake.sh [N] [package...]
#
# N defaults to 50; the packages default to the four whose tests start
# threads and sockets (pbrs-store pbrs-obs pbrs-chunkd pbrs-gateway).
# Prints one line per test that ever failed (failures / runs, then the
# logs of those runs) and exits non-zero if there is any. The full output
# of every failing run is kept as target/flake/<binary>.<run>.log, so the
# assertion behind a rare failure can be read after the fact. A test that only passes on a quiet box is a
# bug in the test or in the product: fix the ordering it depends on, do
# not lengthen its timeout.
#
# A run still going after $hang_limit seconds is hung — a deadlock, or a
# waiter stranded behind a reading turn nobody holds — and is killed and
# counted as "(timed out)". Every binary finishes in seconds even on the
# loaded box, so the limit only ever catches hangs.
set -euo pipefail
cd "$(dirname "$0")/.."
hang_limit=600

runs=50
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
    runs=$1
    shift
fi
packages=("$@")
if [ ${#packages[@]} -eq 0 ]; then
    packages=(pbrs-store pbrs-obs pbrs-chunkd pbrs-gateway)
fi

# Build once. `cargo test --no-run` names every test executable on
# stderr: "  Executable tests/chaos.rs (target/debug/deps/chaos-0123abcd)".
# Each is later run from its package directory, as `cargo test` would.
binaries=()
for package in "${packages[@]}"; do
    dir=$(cargo pkgid --offline -p "$package" | sed -E 's|^[^/]*//||; s|#.*$||')
    while IFS= read -r exe; do
        [[ "$exe" = /* ]] || exe="$PWD/$exe"
        binaries+=("$dir|$exe")
    done < <(cargo test --offline --no-run -p "$package" 2>&1 |
        sed -nE 's/^ +Executable .*\((.+)\)$/\1/p')
done
if [ ${#binaries[@]} -eq 0 ]; then
    echo "flake.sh: no test binaries found for: ${packages[*]}" >&2
    exit 2
fi

spinners=()
cleanup() {
    [ ${#spinners[@]} -eq 0 ] || kill "${spinners[@]}" 2>/dev/null || true
}
trap cleanup EXIT
for _ in $(seq $(($(nproc) + 1))); do
    (while :; do :; done) &
    spinners+=($!)
done

logdir=target/flake
rm -rf "$logdir"
mkdir -p "$logdir"
failures=$(mktemp)
echo "flake.sh: ${#binaries[@]} test binaries x $runs runs beside ${#spinners[@]} spinners"
for entry in "${binaries[@]}"; do
    dir=${entry%%|*}
    exe=${entry#*|}
    name=$(basename "$exe" | sed -E 's/-[0-9a-f]{16}$//')
    for run in $(seq "$runs"); do
        status=0
        out=$(cd "$dir" && timeout --kill-after=10 "$hang_limit" "$exe" 2>&1) || status=$?
        [ "$status" -ne 0 ] || continue
        failed=$(sed -nE 's/^test (.+) \.\.\. FAILED$/\1/p' <<<"$out")
        # 124: the hang guard killed the binary.
        if [ "$status" -eq 124 ]; then
            failed=$(printf '%s\n(timed out)' "$failed" | sed '/^$/d')
        fi
        # No FAILED line: the binary died (abort, signal) mid-run.
        [ -n "$failed" ] || failed="(binary exited abnormally)"
        log="$logdir/$name.$run.log"
        printf '%s\n' "$out" >"$log"
        while IFS= read -r test; do
            printf '%s\t%s\n' "$name::$test" "$log" >>"$failures"
        done <<<"$failed"
    done
    echo "  ran $name"
done

if [ -s "$failures" ]; then
    echo "flake.sh: failures out of $runs runs each, with the failing runs' logs:"
    cut -f1 "$failures" | sort | uniq -c | sort -rn | while read -r count test; do
        logs=$(awk -F'\t' -v test="$test" '$1 == test { print $2 }' "$failures" | tr '\n' ' ')
        echo "  $count / $runs  $test  ${logs% }"
    done
    rm -f "$failures"
    exit 1
fi
rm -f "$failures"
echo "flake.sh: 0 failures in $runs loaded runs of ${#binaries[@]} test binaries"
