#!/usr/bin/env bash
# Count the lines of shipped code: non-blank lines that are not `//`
# comments (plain, `///` or `//!`), up to the first `#[cfg(test)]` of each
# `.rs` file, so unit-test modules at the end of a file do not count.
#
#   scripts/loc.sh <dir>...
#
# Prints one line per file, then one total per directory, then the grand
# total when more than one directory is given. Files are found
# recursively and listed in path order.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    echo "usage: scripts/loc.sh <dir>..." >&2
    exit 2
fi

count_file() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

grand=0
for dir in "$@"; do
    if [ ! -d "$dir" ]; then
        echo "loc.sh: not a directory: $dir" >&2
        exit 2
    fi
    total=0
    while IFS= read -r file; do
        n=$(count_file "$file")
        printf '%7d  %s\n' "$n" "$file"
        total=$((total + n))
    done < <(find "$dir" -name '*.rs' -type f | LC_ALL=C sort)
    printf '%7d  %s (total)\n' "$total" "$dir"
    grand=$((grand + total))
done
if [ $# -gt 1 ]; then
    printf '%7d  total\n' "$grand"
fi
