#!/usr/bin/env bash
# Count first-party Rust lines per crate, split into non-test and test.
# Usage: scripts/loc.sh [REPO_ROOT]
#
# Non-test: crates/*/src, xtask/src and src (the root package), without
# their `#[cfg(test)]` modules, inline or in files of their own. Test:
# those modules plus crates/*/tests and tests/. The spmdlint fixture corpus (crates/spmdlint/tests/fixtures)
# is analyzer input, not code, and is left out. Every line counts,
# blank and comment lines included. Run it on two checkouts to get a
# change's net count.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Print the files of the test-only modules that `#[cfg(test)]` followed by
# `mod name;` declares in the .rs files given: `name.rs` or `name/mod.rs`
# beside a `lib.rs`, `main.rs` or `mod.rs`, under `stem/` beside any other.
test_module_files() {
    local f dir name
    for f in "$@"; do
        dir=$(dirname "$f")
        case $(basename "$f") in
            lib.rs | main.rs | mod.rs) ;;
            *) dir="$dir/$(basename "$f" .rs)" ;;
        esac
        awk '
            pending && match($0, /^[ \t]*mod [A-Za-z_0-9]+ *;/) {
                sub(/^[ \t]*mod /, ""); sub(/ *;.*$/, ""); print
            }
            { pending = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) }
        ' "$f" | while read -r name; do
            for cand in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                [ -f "$cand" ] && echo "$cand"
            done
        done
    done
}

# Print "<non-test> <test>" for the .rs files under directory $1: a
# `#[cfg(test)]` attribute followed by `mod name {` opens a test module,
# which ends at the closing brace on the attribute's indentation; one
# followed by `mod name;` makes the attribute, the declaration and the
# module's whole file test lines.
split_cfg_test() {
    local files test_files lib test
    mapfile -t files < <(find "$1" -name '*.rs' 2>/dev/null | sort)
    if [ "${#files[@]}" -eq 0 ]; then
        echo 0 0
        return
    fi
    mapfile -t test_files < <(test_module_files "${files[@]}" | sort -u)
    if [ "${#test_files[@]}" -gt 0 ]; then
        mapfile -t files < <(printf '%s\n' "${files[@]}" | grep -vxF -f <(printf '%s\n' "${test_files[@]}"))
    fi
    read -r lib test < <(awk '
        FNR == 1 { pending = 0; in_test = 0 }
        in_test {
            test++
            if ($0 == close_line) in_test = 0
            next
        }
        pending {
            if ($0 ~ /^[ \t]*mod [A-Za-z_0-9]+ *\{ *$/) {
                test += pending + 1
                pending = 0
                in_test = 1
                next
            }
            if ($0 ~ /^[ \t]*mod [A-Za-z_0-9]+ *; *$/) {
                test += pending + 1
                pending = 0
                next
            }
            lib += pending
            pending = 0
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ {
            match($0, /^[ \t]*/)
            close_line = substr($0, 1, RLENGTH) "}"
            pending = 1
            next
        }
        { lib++ }
        END { print lib + pending + 0, test + 0 }
    ' "${files[@]}")
    if [ "${#test_files[@]}" -gt 0 ]; then
        test=$((test + $(cat "${test_files[@]}" | wc -l)))
    fi
    echo "$lib" "$test"
}

# Print the lines of the .rs files under the given directories (0 if none).
count_files() {
    local n=0 d
    for d in "$@"; do
        [ -d "$d" ] || continue
        n=$((n + $(find "$d" -name '*.rs' -not -path '*/tests/fixtures/*' -print0 \
            | xargs -0 -r cat | wc -l)))
    done
    echo "$n"
}

row() {
    local name=$1 src=$2 tests=$3 lib test
    read -r lib test < <(split_cfg_test "$src")
    test=$((test + $(count_files "$tests")))
    printf '%-12s %9d %9d\n' "$name" "$lib" "$test"
    total_lib=$((total_lib + lib))
    total_test=$((total_test + test))
}

total_lib=0
total_test=0
printf '%-12s %9s %9s\n' crate non-test test
for dir in crates/*/; do
    name=$(basename "$dir")
    row "$name" "$dir/src" "$dir/tests"
done
row xtask xtask/src xtask/tests
row p-autoclass src tests
printf '%-12s %9d %9d\n' total "$total_lib" "$total_test"
