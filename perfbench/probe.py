"""Set-up probe: one fresh process times ``import ryprep`` plus one warm-up image.

Started by run.py from the root of a ryprep checkout:

    python3 perfbench/probe.py DIR WORKLOAD SEED

ryprep is imported before anything else that loads NumPy, so the import is
timed as a user of the CLI pays it; it is scaled by the reference sampled
right after it, the warm-up image call by call.  Prints one JSON object; the
warm-up outputs stay in DIR for run.py to compare byte for byte.
"""

import json
import sys
import time

import ops

REF_REPS = 5


def main(out_dir: str, workload: str, seed: int) -> int:
    sys.path.insert(0, "src")
    t0 = time.perf_counter()
    import ryprep.cli

    import_s = time.perf_counter() - t0
    import speed
    import workloads

    clock = speed.RefClock()
    clock.measure(REF_REPS)  # the first samples of a fresh process run cold
    ref = clock.measure(REF_REPS)
    f = ops.Files(out_dir)
    f.prepare(workloads.warmup_image(workload, seed).pgm())
    warm = ops.run_image(ryprep.cli.main, workloads.COMMANDS[workload], f, clock, REF_REPS)
    doc = {
        "rc": warm["rc"],
        "import_s": import_s,
        "warm_s": warm["raw"],
        "setup_s": speed.scale(import_s, ref, ref) + warm["scaled"],
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
