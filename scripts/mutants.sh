#!/usr/bin/env bash
# Run the committed mutants and write their kill matrix.
#
#   scripts/mutants.sh [--strict] [pattern]
#
# Each tests/mutants/NNN-name.patch breaks one guarantee in a few lines.
# Its header (the text before the first `---`, which `git apply`
# ignores) holds two fields:
#
#   Guarantee: what the patch breaks
#   Killed-by: a test expected to fail, as this script names it
#              (`<test binary>::<test path>`)
#
# Every patch is applied in turn to one copy of the tree (HEAD plus any
# tracked change, via `git stash create`; stage new files first). The
# copy keeps one path and CARGO_TARGET_DIR (default target/mutants) is
# shared, so each build is incremental: the patched files are touched
# before the build and copied back from a pristine copy after it, and the JSON
# build messages must show every patched package recompiled. Then
# `cargo test --no-fail-fast` runs the root package, `gridagg-core`,
# `gridagg-aggregate` and any other patched package, and every failing
# test is recorded. The loopback socket smoke
# (`sockets_match_simulator::smoke_512_members_over_16_sockets`) is
# skipped: its completeness margin depends on host load, so a failure
# there is no evidence that a patch was noticed. `--strict` runs every
# patch in the strict-invariants build instead of the default one.
# A pattern keeps only the patches whose file name contains it.
#
# Exit status 1 when a patch no longer applies or does not build, or a
# mutant survives, is not killed by its Killed-by test, or is killed
# only by goldens (tests/equivalence_goldens.rs). A default-build run of
# every patch writes results/mutants.md; any other run prints the matrix.
set -euo pipefail

build=default
pattern=
for arg in "$@"; do
    case "$arg" in
        --strict) build=strict-invariants ;;
        -*)
            echo "usage: $0 [--strict] [pattern]" >&2
            exit 2
            ;;
        *) pattern=$arg ;;
    esac
done
features=()
if [ "$build" = strict-invariants ]; then
    features=(--features gridagg/strict-invariants)
fi

root=$(git rev-parse --show-toplevel)
cd "$root" || exit
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir "$tree" "$work/orig"
# a commit of the working tree, made without touching it or the index
rev=$(git -c user.name=mutants -c user.email=mutants@localhost stash create)
git archive "${rev:-HEAD}" | tar -x -C "$work/orig"
cp -R "$work/orig/." "$tree"

failed=0
rows=()
fail() {
    echo "mutants: $1" >&2
    failed=1
}

# A header field of a patch.
field() {
    sed -n "/^---/q; s/^$2: *//p" "$1"
}

# The package a patched path belongs to.
package_of() {
    case "$1" in
        crates/*)
            local dir=${1#crates/}
            sed -n 's/^name = "\(.*\)"/\1/p' "$tree/crates/${dir%%/*}/Cargo.toml" | head -n 1
            ;;
        *) echo gridagg ;;
    esac
}

# The failing tests in a `cargo test --no-fail-fast` log, one a line, as
# `<binary>::<test>`; a binary that ended without a result line is
# `<binary>::(crashed)`.
failures() {
    awk '
        function close_bin() { if (bin != "" && !done) print bin "::(crashed)" }
        /^ *Running / {
            close_bin()
            bin = $2
            if (bin == "unittests") { bin = $NF; sub(/.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
            else { sub(/^.*\//, "", bin); sub(/\.rs$/, "", bin) }
            done = 0
        }
        /^ *Doc-tests / { close_bin(); bin = "doc:" $2; done = 0 }
        /^test result: / { done = 1 }
        /^---- .* stdout ----$/ { sub(/^---- /, ""); sub(/ stdout ----$/, ""); print bin "::" $0 }
        END { close_bin() }
    ' "$1" | sort -u
}

# Build and test the copy with one patch applied, the packages it
# touches named in $1; prints the killers, one a line, or fails.
run_build() {
    local args=(-p gridagg -p gridagg-core -p gridagg-aggregate) log="$work/log"
    for p in $1; do
        [[ " ${args[*]} " == *" $p "* ]] || args+=(-p "$p")
    done
    cd "$tree" || return 1
    if ! cargo test --no-run --message-format=json "${args[@]}" "${features[@]}" \
        >"$work/build.json" 2>"$log"; then
        tail -n 30 "$log" >&2
        echo "does not build"
        return 1
    fi
    # a shared target dir can reuse a stale artefact: each patched
    # package must have been rebuilt. The last grep reads to the end:
    # `grep -q` would exit at the first match, and the grep feeding it
    # (a package with many targets writes more than one pipe buffer)
    # could then die of SIGPIPE, which pipefail reports as no match
    for p in $1; do
        if ! grep '"reason":"compiler-artifact"' "$work/build.json" \
            | grep "#$p@" | grep '"fresh":false' >/dev/null; then
            echo "did not recompile $p"
            return 1
        fi
    done
    local status=0
    timeout 900 cargo test --no-fail-fast "${args[@]}" "${features[@]}" \
        -- --skip smoke_512_members_over_16_sockets >"$log" 2>&1 || status=$?
    # a hung test never passes either
    if [ "$status" -eq 124 ]; then
        echo "(timed out)"
    fi
    failures "$log"
}

shopt -s nullglob
for path in tests/mutants/*.patch; do
    patch=$(basename "$path")
    [[ -z "$pattern" || "$patch" == *"$pattern"* ]] || continue
    guarantee=$(field "$path" Guarantee)
    expected=$(field "$path" Killed-by)
    if [[ -z "$guarantee" || -z "$expected" ]]; then
        fail "$patch: its header needs Guarantee and Killed-by"
        continue
    fi
    row="| \`${patch%.patch}\` | $guarantee | \`$expected\` |"
    if ! (cd "$tree" && git apply "$root/$path"); then
        fail "$patch no longer applies"
        continue
    fi
    files=$(sed -n 's|^+++ b/||p' "$path")
    packages=$(for f in $files; do package_of "$f"; done | sort -u | tr '\n' ' ')
    echo "== $patch ($build)" >&2
    # shellcheck disable=SC2086 # a path is one word
    (cd "$tree" && touch $files)
    if killers=$(run_build "$packages"); then
        sed '/^$/d; s/^/   /' <<<"$killers" >&2
        if [ -z "$killers" ]; then
            fail "$patch survives"
            cell="**survives**"
        else
            if ! grep -qxF "$expected" <<<"$killers"; then
                fail "$patch: $expected did not kill it"
            fi
            cell=$(sed 's/.*/`&`/; s/^`equivalence_goldens::.*`$/& (golden)/' <<<"$killers" \
                | paste -sd ',' - | sed 's/,/, /g')
            if ! grep -qv '^equivalence_goldens::' <<<"$killers"; then
                fail "$patch is killed only by goldens"
                cell="$cell; **goldens only**"
            fi
        fi
    else
        fail "$patch: $killers"
        cell="**$killers**"
    fi
    # the pristine files, newer than the build, so the next one rebuilds
    # them (a reverse patch could land on a twin of the changed lines)
    for f in $files; do
        cp "$work/orig/$f" "$tree/$f"
    done
    rows+=("$row $cell |")
done

if [ ${#rows[@]} -eq 0 ]; then
    echo "mutants: no patch matches '$pattern'" >&2
    exit 1
fi

matrix() {
    cat <<EOF
# Mutant kill matrix ($build build)

Written by \`scripts/mutants.sh\`: one row per patch in \`tests/mutants/\`.
A kill cell lists every test that failed with the patch applied, as
\`<test binary>::<test path>\`, under \`cargo test --no-fail-fast -p
gridagg -p gridagg-core -p gridagg-aggregate\` (and any other patched
package), with the loopback socket smoke skipped (its margin
depends on host load); \`(golden)\` marks a frozen number in
\`tests/equivalence_goldens.rs\`. \`scripts/mutants.sh
--strict\` runs the same patches in the strict-invariants build.

| mutant | guarantee | expected killer | killed by |
|---|---|---|---|
EOF
    printf '%s\n' "${rows[@]}"
}

if [[ -z "$pattern" && $build == default ]]; then
    matrix >results/mutants.md
    echo "mutants: wrote results/mutants.md" >&2
else
    matrix
fi
exit "$failed"
