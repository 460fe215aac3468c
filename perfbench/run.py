"""Drift-corrected end-to-end benchmark of ryprep's image -> verified-circuit path.

Run from the root of a ryprep checkout:

    python3 perfbench/run.py --workload thumbs --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each image is handed to
``ryprep.cli.main`` in-process only after the previous one is done.  Every
operation is timed between two samples of the machine-speed reference in
``speed.py`` and reported both raw and scaled to the nominal machine speed.
Outputs are checked after each operation, outside the timed region, against
computations made apart from ryprep (``checks.py``).  ``--trace 1`` processes
the same images and replays each command as library calls with spans around
them (``spans.py``) to give per-layer times.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import os

# One client and no extra threads.  A BLAS thread pool would also spin for a
# while after NumPy is imported and trip the busy-thread guard in speed.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import spans
import speed
import workloads
from ops import Files, run_image

BUILD_DIR = ".bench_build"
# set-up probes: at least 3, and up to 9 while they take under 5 s in all;
# a cheap set-up is dominated by the import, which is the noisiest part
SETUP_PROBES = (3, 9)
SETUP_PROBE_S = 5.0
PROBE_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
SIM_SAMPLE_SHARE = 0.25  # share of photo14 images re-simulated from their QASM
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build() -> None:
    """Compile ryprep's optional extension in place, once per checkout."""
    stamp = os.path.join(BUILD_DIR, "perfbench-built")
    if os.path.exists(stamp) or not os.path.exists("setup.py"):
        return
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace"]
    cmd += ["--build-temp", os.path.join(BUILD_DIR, "ext")]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    with open(stamp, "w", encoding="utf-8"):
        pass


def check_image(command: str, pixels: np.ndarray, f: Files, verify_out: str, run_sim: bool):
    """Check one image's outputs; returns (bytes written, gate count)."""
    files = f.written()
    if command == "encode":
        checks.check_state(pixels, files["state.json"].decode("utf-8"))
        return len(files["state.json"]), 0
    gates = checks.check_circuit(
        pixels,
        files["circuit.json"].decode("utf-8"),
        files["circuit.qasm"].decode("utf-8"),
        files["report.json"].decode("utf-8"),
        run_sim=run_sim,
    )
    checks.check_verify(verify_out)
    return sum(len(files[k]) for k in ("circuit.json", "circuit.qasm", "report.json")), gates


def self_test(cli_main, clock: speed.RefClock, work: str) -> None:
    """The checks must pass the worked example's outputs and reject
    corrupted copies of them."""
    f = Files(os.path.join(work, "selftest"))
    f.prepare(workloads.Image("P5", 255, workloads.WORKED_EXAMPLE).pgm())
    for command in ("synth+verify", "encode"):
        if run_image(cli_main, command, f, clock)["rc"] != 0:
            raise RuntimeError("the worked example failed; cannot self-test the checks")
    texts = {k: v.decode("utf-8") for k, v in f.written().items()}
    checks.self_test(
        workloads.WORKED_EXAMPLE,
        texts["circuit.json"],
        texts["circuit.qasm"],
        texts["report.json"],
        texts["state.json"],
    )


def set_up(args: argparse.Namespace, cli_main, clock: speed.RefClock, work: str) -> list[dict]:
    """Time set-up in fresh processes, one after another, then warm this
    process up on the same image.  All warm-up outputs must match byte for
    byte."""
    command = workloads.COMMANDS[args.workload]
    docs, outputs = [], []
    start = time.perf_counter()
    while len(docs) < SETUP_PROBES[0] or (
        len(docs) < SETUP_PROBES[1] and time.perf_counter() - start < SETUP_PROBE_S
    ):
        d = os.path.join(work, f"probe{len(docs)}")
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), d, args.workload, str(args.seed)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise RuntimeError(f"set-up probe exited with {res.returncode}")
        doc = json.loads(res.stdout.strip().splitlines()[-1])
        if doc["rc"] != 0:
            raise RuntimeError(f"warm-up image failed in a set-up probe (exit {doc['rc']})")
        docs.append(doc)
        outputs.append(Files(d).written())
    warm = workloads.warmup_image(args.workload, args.seed)
    f = Files(os.path.join(work, "warmup"))
    f.prepare(warm.pgm())
    res = run_image(cli_main, command, f, clock)
    if res["rc"] != 0:
        raise RuntimeError(f"warm-up image failed (exit {res['rc']})")
    check_image(command, warm.pixels, f, res["stdout"], run_sim=True)
    if any(out != f.written() for out in outputs):
        raise checks.CheckFailed("one input processed twice gave different output bytes")
    return docs


def replay(tracer: spans.Tracer, rp, command: str, pgm: bytes, f: Files, clock) -> dict:
    """Replay one image's commands as traced library calls, each command
    between two reference samples like the CLI call it stands for.  Returns
    the image's scaled seconds per layer and the share of replay time that
    no layer span covers."""
    layers: dict[str, float] = {}
    outer = inner = 0.0
    ref = clock.measure()

    def part(name: str, fn):
        nonlocal ref, outer, inner
        mark = len(tracer.spans)
        out, raw, _, ref_after = clock.timed(lambda: tracer.parent(name, fn), ref)
        for _, _, parent, layer, s0, s1 in tracer.spans[mark:]:
            if parent < 0:
                outer += s1 - s0
            else:
                inner += s1 - s0
                layers[layer] = layers.get(layer, 0.0) + speed.scale(s1 - s0, ref, ref_after)
        ref = ref_after
        return out

    if command == "encode":
        made = {"state.json": part("replay.encode", lambda: spans.replay_encode(tracer, rp, pgm))}
    else:
        texts = part("replay.synth", lambda: spans.replay_synth(tracer, rp, pgm))
        part("replay.verify", lambda: spans.replay_verify(tracer, rp, pgm, texts[0]))
        made = {"circuit.json": texts[0], "circuit.qasm": texts[1]}
    written = f.written()
    for name, text in made.items():
        if written.get(name, b"").decode("utf-8").rstrip("\n") != text.rstrip("\n"):
            raise checks.CheckFailed(f"replayed {name} differs from what the CLI wrote")
    return {"layers": layers, "overhead_pct": 100.0 * (outer - inner) / outer}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ryprep", "__init__.py")):
        print("perfbench: src/ryprep not found; run from a ryprep checkout", file=sys.stderr)
        return 2
    os.environ["LOG_LEVEL"] = "warn"
    build()
    sys.path.insert(0, "src")
    import ryprep
    import ryprep.cli

    work = os.path.join(BUILD_DIR, "perfbench", f"run-{os.getpid()}")
    try:
        return measure(args, ryprep, work)
    except speed.BusyThreadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, subprocess.SubprocessError, checks.CheckFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, ryprep, work: str) -> int:
    w = args.workload
    print(
        f"meta: workload={w} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"backend={ryprep.KERNEL_BACKEND} numpy={np.__version__} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"ref_nominal_ms={1e3 * speed.NOMINAL_REF_S:.3f}"
    )
    clock = speed.RefClock()
    self_test(ryprep.cli.main, clock, work)
    probe_docs = set_up(args, ryprep.cli.main, clock, work)
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    recs, attempted, failed, correct = timed_loop(args, ryprep, clock, tracer, work)
    wall = time.perf_counter() - start

    if tracer is not None:
        path = os.path.join(BUILD_DIR, "perfbench", f"trace-{w}-s{args.seed}.jsonl")
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans written to {path}")
        cli_ms = 1e3 * statistics.fmean(r["scaled"] for r in recs)
        layer_ms = 1e3 * statistics.fmean(sum(r["layers"].values()) for r in recs)
        print(
            f"accounting: mean per image, cli.main {cli_ms:.3f} ms = layers {layer_ms:.3f} ms "
            f"+ cli.self {cli_ms - layer_ms:.3f} ms"
        )
        metrics = layer_metrics(recs, clock)
    else:
        metrics = end_to_end_metrics(recs, probe_docs)
    print(
        f"run: images={len(recs)} attempted={attempted} failed={failed} "
        f"cycles={attempted // workloads.cycle_length(w)} wall_s={wall:.2f} "
        f"ref_samples={len(clock.samples)} ref_p50_ms={1e3 * statistics.median(clock.samples):.4f}"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit:5s} {note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_loop(
    args: argparse.Namespace,
    ryprep,
    clock: speed.RefClock,
    tracer: spans.Tracer | None,
    work: str,
) -> tuple[list[dict], int, int, bool]:
    """Whole cycles of images until ``--seconds`` have passed.  Returns one
    record per finished image, the attempts, the failures, and whether
    every finished image's outputs passed the checks."""
    w = args.workload
    command = workloads.COMMANDS[w]
    f = Files(os.path.join(work, "images"))
    wid = workloads.WORKLOADS[w][0]
    seq = workloads.images(w, args.seed)
    recs: list[dict] = []
    attempted = failed = 0
    correct = True
    longest = 0.0
    start = time.perf_counter()
    while True:
        for _ in range(workloads.cycle_length(w)):
            image = next(seq)
            pgm = image.pgm()
            f.prepare(pgm)
            attempted += 1
            try:
                res = run_image(ryprep.cli.main, command, f, clock, speed.reps_for(longest))
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                res = {"rc": None}
            if res["rc"] != 0:
                failed += 1
                print(f"failed: {image.label}: exit {res['rc']}", file=sys.stderr)
                continue
            longest = res["longest"]
            rec = {"raw": res["raw"], "scaled": res["scaled"]}
            if tracer is not None:
                tracer.image = len(recs)
                rec.update(replay(tracer, ryprep, command, pgm, f, clock))
            run_sim = w == "thumbs" or (
                w == "photo14"
                and np.random.default_rng([args.seed, wid, 2, attempted]).random()
                < SIM_SAMPLE_SHARE
            )
            try:
                rec["bytes"], rec["gates"] = check_image(
                    command, image.pixels, f, res["stdout"], run_sim
                )
            except (checks.CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
                correct = False
                print(f"wrong output: {image.label}: {exc!r}", file=sys.stderr)
                rec["bytes"], rec["gates"] = 0, 0
            recs.append(rec)
        if not recs:
            raise RuntimeError("no operation succeeded in a whole cycle")
        if time.perf_counter() - start >= args.seconds:
            return recs, attempted, failed, correct


def end_to_end_metrics(recs: list[dict], probe_docs: list[dict]) -> dict:
    """Name -> (value, unit, note); raw wall-clock figures go in the note."""
    raw = [r["raw"] for r in recs]
    scaled = [r["scaled"] for r in recs]
    n = len(recs)
    setup = statistics.median(d["setup_s"] for d in probe_docs)
    setup_raw = statistics.median(d["import_s"] + d["warm_s"] for d in probe_docs)
    import_raw = statistics.median(d["import_s"] for d in probe_docs)
    return {
        "images_per_s": (n / sum(scaled), "1/s", f"raw {n / sum(raw):.4f}"),
        "image_p50_ms": (
            1e3 * statistics.median(scaled),
            "ms",
            f"raw {1e3 * statistics.median(raw):.4f}, n={n}",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        "setup_s": (
            setup,
            "s",
            f"raw {setup_raw:.4f} (import {import_raw:.4f}), n={len(probe_docs)}",
        ),
        "output_bytes": (sum(r["bytes"] for r in recs) / n, "B", "per image"),
    }


def layer_metrics(recs: list[dict], clock: speed.RefClock) -> dict:
    """Per-layer medians per image, in scaled ms; 0 where a layer never runs."""

    def med(values):
        return statistics.median(values) if values else 0.0

    n = len(recs)
    out = {}
    for name in spans.LAYERS:
        out[f"{name}_ms"] = (med([1e3 * r["layers"].get(name, 0.0) for r in recs]), "ms", f"n={n}")
    self_ms = [1e3 * (r["scaled"] - sum(r["layers"].values())) for r in recs]
    out["cli.self_ms"] = (med(self_ms), "ms", "cli.main minus its library calls")
    out["synthesis.gates"] = (med([r["gates"] for r in recs]), "count", "")
    out["bench.ref_ms"] = (1e3 * statistics.median(clock.samples), "ms", "raw reference")
    out["bench.trace_overhead_pct"] = (
        med([r["overhead_pct"] for r in recs]),
        "%",
        "replay time outside layer spans",
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
