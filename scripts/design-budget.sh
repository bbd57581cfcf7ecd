#!/usr/bin/env bash
# Print each budgeted crate's design budget -- non-test source lines, `pub fn`s,
# `Mutex<` sites and `unsafe` tokens -- next to the numbers recorded in
# DESIGN.md ("Design budget"), with the delta. The wall-clock benchmark
# package (`benchmark/src`, outside the workspace) is read, never written. Informational: it never fails on
# a difference, so a PR that moves a number updates the table in the same
# change.
#
# Non-test = everything above a file's first column-0 `#[cfg(test)]`; `pub fn`,
# `Mutex<` and `unsafe` are not counted on comment lines.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        test { next }
        { lines++ }
        /^[[:space:]]*\/\// { next }
        /pub fn / { fns++ }
        { mutexes += gsub(/Mutex</, "&") }
        {
            n = split($0, word, /[^A-Za-z0-9_]+/)
            for (k = 1; k <= n; k++) if (word[k] == "unsafe") unsafes++
        }
        END { print lines + 0, fns + 0, mutexes + 0, unsafes + 0 }'
}

names=("non-test lines" "pub fn" "Mutex<" "unsafe")
printf '%-12s %-16s %8s %9s %6s\n' crate count now DESIGN.md delta
for pair in netsim:crates/netsim pure-core:crates/core mpi-baseline:crates/baseline \
    cluster-sim:crates/cluster-sim pure-bench:crates/bench benchmark:benchmark; do
    crate="${pair%%:*}"
    read -r -a now <<<"$(count "${pair#*:}")"
    # The crate's row of the DESIGN.md table: | `crate` | a → b | a → b | ... |
    row="$(grep -m1 "^| \`$crate\` |" DESIGN.md || true)"
    for i in "${!names[@]}"; do
        recorded="$(cut -d'|' -f$((i + 3)) <<<"$row" | sed 's/.*→//' | tr -dc '0-9')"
        if [[ -n "$recorded" ]]; then
            delta="$(printf '%+d' $((now[i] - recorded)))"
        else
            recorded="-" delta="(not recorded)"
        fi
        printf '%-12s %-16s %8d %9s %6s\n' "$crate" "${names[i]}" "${now[i]}" "$recorded" "$delta"
    done
done
