#!/usr/bin/env bash
# Check that two builds of this repository print and write the same
# bytes: every figure/table harness and every example.
#
#   scripts/compare_outputs.sh BASE_BUILD NEW_BUILD [WORKDIR]
#
# Each build dir is a built tree (cmake -B DIR -S . && cmake --build
# DIR). From each build the script runs, at default size, every bench/
# harness that ctest runs (all but perf_kernel, perf_sweep and
# torture_crashpoints) and every example, and keeps each run's stdout,
# stderr and exit status under WORKDIR/base and WORKDIR/new. The five
# sweep harnesses run twice, at --jobs 1 and at --jobs 4, each with
# --out into its own directory, so their JSON and CSV reports are
# compared too. Then it diffs the two trees.
#
# Two kinds of stdout line are dropped before the diff: "wrote <path>"
# lines, which name the output directory, and sweep_minimal's wall-time
# line ("ran N trials on W workers in S s").
#
# WORKDIR defaults to a new temporary directory; the trees are kept.
# Exit status: 0 identical, 1 outputs differ, 2 usage error.

set -euo pipefail

SWEEPS=" ablation_sweeps fig12_throughput fig14_noise grid_ber_noise roc_detect "
SKIP=" perf_kernel perf_sweep torture_crashpoints "

usage() {
    echo "usage: $0 BASE_BUILD NEW_BUILD [WORKDIR]" >&2
    exit 2
}

# capture PREFIX CMD...: CMD's stdout, stderr and exit status into
# PREFIX.stdout, PREFIX.stderr and PREFIX.status.
capture() {
    local prefix=$1
    shift
    local rc=0
    "$@" >"$prefix.stdout" 2>"$prefix.stderr" || rc=$?
    echo "$rc" >"$prefix.status"
    sed -i -e '/^wrote /d' "$prefix.stdout"
}

# run_side BUILD OUT: run every harness and example of BUILD into OUT.
run_side() {
    local build=$1 out=$2 exe name j
    mkdir -p "$out/bench" "$out/examples"
    for exe in "$build"/bench/*; do
        [[ -f $exe && -x $exe ]] || continue
        name=$(basename "$exe")
        [[ $SKIP == *" $name "* ]] && continue
        if [[ $SWEEPS == *" $name "* ]]; then
            for j in 1 4; do
                capture "$out/bench/$name.j$j" "$exe" --jobs "$j" \
                    --out "$out/bench/$name.j$j.reports"
            done
        else
            capture "$out/bench/$name" "$exe"
        fi
    done
    for exe in "$build"/examples/*; do
        [[ -f $exe && -x $exe ]] || continue
        name=$(basename "$exe")
        # sweep_minimal writes results/ into its working directory.
        mkdir -p "$out/examples/$name.cwd"
        (cd "$out/examples/$name.cwd" &&
            capture "$out/examples/$name" "$exe")
        rm -rf "$out/examples/$name.cwd"
    done
    if [[ -f $out/examples/sweep_minimal.stdout ]]; then
        sed -i -E '/^ran [0-9]+ trials on [0-9]+ workers in [0-9.]+s$/d' \
            "$out/examples/sweep_minimal.stdout"
    fi
}

[[ $# -eq 2 || $# -eq 3 ]] || usage
for b in "$1" "$2"; do
    [[ -d $b/bench && -d $b/examples ]] || usage
done
base=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
rm -rf "$work/base" "$work/new"

run_side "$base" "$work/base"
run_side "$new" "$work/new"

runs=$(find "$work/base" -name '*.status' | wc -l)
if diff -r "$work/base" "$work/new"; then
    echo "identical: $runs runs, trees in $work"
else
    echo "outputs differ: trees in $work" >&2
    exit 1
fi
