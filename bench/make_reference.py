"""Record eps and eta_max per r0 of each workload for the given seeds into
bench/reference.json, which the correctness gate compares against.

    python3 bench/make_reference.py 0-19

Run it only when the program's numbers are meant to change, and say so in
CHANGES.md.  The relative tolerances already in the file are kept.
"""

import json
import os
import sys

from run import BENCH, THREAD_CAPS

for cap in THREAD_CAPS:
    os.environ[cap] = "1"
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (numpy loads on first use, after the caps)


def main(argv):
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    ref = workloads.load_reference()
    workdir = BENCH / "out"
    workdir.mkdir(exist_ok=True)
    os.chdir(BENCH.parent)
    for name in workloads.NAMES:
        for seed in seeds:
            wl = workloads.make(name, seed, False, workdir)
            wl.prepare()
            wl.run()
            out = wl.outputs()
            attempted, failed, messages = workloads.gate(wl, out, {}, None)
            if failed:
                raise SystemExit(f"{name} seed {seed} fails its gate: "
                                 f"{messages}")
            ref[name]["seeds"][str(seed)] = out["per_r0"]
            print(name, seed, out["per_r0"], flush=True)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                   + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
