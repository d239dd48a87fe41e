#!/usr/bin/env bash
# Flake hunt: build the test binaries once, then run each of them N times
# on a deliberately oversubscribed box — nproc + 1 busy loops spinning
# beside the suite — and count failures per test.
#
#   scripts/flake.sh [N] [package...]
#
# N defaults to 50; the packages default to the four whose tests start
# threads and sockets (pbrs-store pbrs-obs pbrs-chunkd pbrs-gateway).
# Prints one line per test that ever failed (failures / runs) and exits
# non-zero if there is any. A test that only passes on a quiet box is a
# bug in the test or in the product: fix the ordering it depends on, do
# not lengthen its timeout.
set -euo pipefail
cd "$(dirname "$0")/.."

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

failures=$(mktemp)
echo "flake.sh: ${#binaries[@]} test binaries x $runs runs beside ${#spinners[@]} spinners"
for entry in "${binaries[@]}"; do
    dir=${entry%%|*}
    exe=${entry#*|}
    name=$(basename "$exe" | sed -E 's/-[0-9a-f]{16}$//')
    for _ in $(seq "$runs"); do
        if ! out=$(cd "$dir" && "$exe" 2>&1); then
            failed=$(sed -nE 's/^test (.+) \.\.\. FAILED$/\1/p' <<<"$out")
            # No FAILED line: the binary died (abort, hang kill) mid-run.
            [ -n "$failed" ] || failed="(binary exited abnormally)"
            while IFS= read -r test; do
                echo "$name::$test" >>"$failures"
            done <<<"$failed"
        fi
    done
    echo "  ran $name"
done

if [ -s "$failures" ]; then
    echo "flake.sh: failures out of $runs runs each:"
    sort "$failures" | uniq -c | sort -rn | sed -E "s|^ *([0-9]+) (.+)$|  \1 / $runs  \2|"
    rm -f "$failures"
    exit 1
fi
rm -f "$failures"
echo "flake.sh: 0 failures in $runs loaded runs of ${#binaries[@]} test binaries"
