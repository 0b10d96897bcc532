#!/usr/bin/env python3
"""Record the golden report digests the benchmark checks at --seed 0.

    python3 perfbench/record_goldens.py

Run from the root of a source checkout. For the two figure workloads the
digests come from the harness binaries themselves, run in a scratch
directory exactly as

    roc_detect --jobs 2 --json --csv        (detect-server)
    grid_ber_noise --json --csv             (channels-desktop)

Each harness's standard output is cut into the per-scenario blocks that
exp::runAndReport prints (header line through the blank line after the
"wrote" lines), which is what a benchmark pass captures as
<scenario>.txt. store-sweep has no harness; its digests come from its
first clean pass (ichbench --record-golden).
"""

import os
import shutil
import subprocess
import sys

import run

HARNESSES = {
    "detect-server": (["roc_detect", "--jobs", "2", "--json", "--csv"],
                      ["roc-detect", "roc-frontier"]),
    "channels-desktop": (["grid_ber_noise", "--json", "--csv"],
                         ["grid-ber-noise"]),
}
GOLDEN = os.path.join(run.HERE, "golden")
SCRATCH = os.path.join(run.BUILD, "golden-scratch")


def scenario_block(lines, name):
    """Lines exp::runAndReport printed for scenario @name."""
    start = next(i for i, l in enumerate(lines) if l.startswith(name + ": "))
    wrote_csv = lines.index("wrote results/%s.csv" % name, start)
    if lines[wrote_csv + 1] != "":
        raise SystemExit("unexpected harness output after " + name)
    return "\n".join(lines[start:wrote_csv + 2]) + "\n"


def record_harness(workload, argv, scenarios):
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    exe = os.path.join(run.BUILD, "bench", argv[0])
    out = subprocess.run([exe] + argv[1:], cwd=SCRATCH, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    lines = out.split("\n")
    results = os.path.join(SCRATCH, "results")
    for name in scenarios:
        with open(os.path.join(results, name + ".txt"), "w") as f:
            f.write(scenario_block(lines, name))
    digests = subprocess.run(
        [os.path.join(run.BUILD, "ichbench"), "--digest-dir", results],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    with open(os.path.join(GOLDEN, workload + ".digests"), "w") as f:
        f.write("# FNV-1a 64 digests of the reports one %s pass writes at\n"
                "# --seed 0, recorded from: %s\n" % (workload, " ".join(argv)))
        f.write(digests)
    shutil.rmtree(SCRATCH)
    print("recorded %s from %s" % (workload, argv[0]))


def main():
    run.build()
    targets = ["bench_" + argv[0] for argv, _ in HARNESSES.values()]
    subprocess.run(["cmake", "--build", run.BUILD, "--target"] + targets +
                   ["-j", run.BUILD_JOBS], stdout=sys.stderr, check=True)
    os.makedirs(GOLDEN, exist_ok=True)
    for workload, (argv, scenarios) in HARNESSES.items():
        record_harness(workload, argv, scenarios)
    subprocess.run([os.path.join(run.BUILD, "ichbench"),
                    "--record-golden", "store-sweep",
                    "--workdir", SCRATCH, "--golden-dir", GOLDEN], check=True)
    shutil.rmtree(SCRATCH)


if __name__ == "__main__":
    main()
