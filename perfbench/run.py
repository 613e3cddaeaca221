"""End-to-end benchmark of the delone pipeline.

    python3 perfbench/run.py --workload synth_5rF --seed 1 --seconds 40 --trace 0

Runs whole rounds of one workload (see ``workloads.py``) for about
``--seconds`` seconds, checks every round's results outside the timed part,
and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mib``,
``sites_per_s``), their times scaled to the reference machine speed by a
calibration kernel timed between rounds, with the unscaled figures on
standard error; with ``--trace 1`` untraced and traced rounds alternate and
the metrics are the per-layer ones of ``tracing.py``, whose spans are also
written to ``perfbench/out/``.  Run from the root of a checkout; the library
is imported from its ``src/``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here: before any import of numpy

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS/OpenMP thread, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("synth_5rF", "certify_deep", "pipeline_3rF")

#: Seconds the calibration kernel takes on the reference machine (README,
#: "Machine speed").  Times are scaled by KERNEL_REF_S over the run's median
#: kernel time, so that a slow stretch of the shared host does not read as a
#: slower program.
KERNEL_REF_S = 0.032


def import_workloads():
    """Import the benchmark's workloads against the checkout's own library."""
    sys.path.insert(0, str(SRC))
    import delone

    if Path(delone.__file__).resolve().parent != SRC / "delone":
        raise ImportError(f"delone resolved to {delone.__file__}, not {SRC}")
    import workloads

    return workloads


def run_round(ops):
    """Run one round's operations in order; after a failure the rest of the
    round counts as failed without running."""
    state, failed = {}, []
    for name, fn in ops:
        if failed:
            failed.append(name)
            continue
        try:
            state[name] = fn(state)
        except Exception:
            traceback.print_exc()
            failed.append(name)
    return state, failed


def check_round(workload, inputs, state) -> dict:
    try:
        return workload.check(inputs, state)
    except Exception:
        traceback.print_exc()
        return {name: ["check raised"] for name in state}


def measure(workload, inputs, seconds: float, after_round, tracer=None) -> list:
    """Whole rounds until the next one would end past ``seconds``, each
    followed by its check and by ``after_round()``.  With a tracer, rounds
    alternate untraced / traced and at least one of each runs."""
    records = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        ops = workload.ops(inputs)
        if traced:
            lo = len(tracer.spans)
            tracer.install()
        t0 = time.perf_counter()
        try:
            state, failed = run_round(ops)
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.remove()
        rec = {"wall": t1 - t0, "traced": traced, "ops": len(ops),
               "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if traced:
            rec["layers"] = tracer.round_metrics(lo)
        rec["problems"] = {k: v for k, v in check_round(workload, inputs, state).items() if v}
        rec["failed"] = len(set(failed) | set(rec["problems"]))
        rec["sites"] = workload.sites(inputs, state) if not failed else 0
        records.append(rec)
        for op, problems in rec["problems"].items():
            for p in problems:
                print(f"perfbench: {op}: {p}", file=sys.stderr)
        after_round()
        now = time.perf_counter()
        enough = len(records) >= (2 if tracer is not None else 1)
        if enough and (now - begin) + (now - t0) > seconds:
            return records


def kernel_seconds() -> list:
    """Seconds of each of three runs of a fixed calibration kernel that
    calls no delone code: an interpreter loop, small numpy calls as in the
    program's per-step code, and passes over arrays larger than L2."""
    import numpy as np

    big = np.linspace(0.0, 1.0, 200_000)
    small = np.linspace(0.0, 1.0, 96).reshape(32, 3)
    out = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc += (i * i) % 7
        x = small
        for _ in range(3_600):
            x = np.sqrt(x * x + 1.0) - 0.5
            acc += int(np.argmin(x[:, 0]))
        y = big
        for _ in range(50):
            y = np.sqrt(y * y + 1.0) - 0.5
        out.append(time.perf_counter() - t0)
    return out


def setup_probe(name: str, seed: int) -> dict:
    """Set-up time of a fresh interpreter, as measured by that interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result(records: list, setups: list, kernel: list, input_problems: list, tracer) -> dict:
    problems = input_problems + [p for r in records for v in r["problems"].values() for p in v]
    out = {"correct": not problems,
           "attempted": sum(r["ops"] for r in records),
           "failed": sum(r["failed"] for r in records)}
    kernel_s = statistics.median(kernel)
    wall_s = statistics.median(r["wall"] for r in records)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    print(f"perfbench: unscaled wall_s={wall_s!r} setup_s={setup_s!r} "
          f"kernel_s={kernel_s!r}", file=sys.stderr)
    scale = KERNEL_REF_S / kernel_s
    if tracer is None:
        metrics = {
            "wall_s": (wall_s * scale, "s"),
            "setup_s": (setup_s * scale, "s"),
            "peak_rss_mib": (records[0]["rss_kib"] / 1024.0, "MiB"),
            "sites_per_s": (statistics.median(r["sites"] / r["wall"] for r in records) / scale,
                            "1/s"),
        }
    else:
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        metrics = tracer.report(
            [r["layers"] for r in traced],
            bundle_s=statistics.median(s["bundle_s"] for s in setups),
            kernel_s=kernel_s,
            overhead_s=(statistics.median(r["wall"] for r in traced)
                        - statistics.median(r["wall"] for r in plain)))
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    seed = args.seed % 2**32
    inputs = workload.setup(seed)
    setups = [{"setup_s": time.perf_counter() - _START, "bundle_s": inputs["bundle_s"]}]
    try:
        if args.probe_setup:
            print(json.dumps(setups[0]))
            return 0
        input_problems = workload.validate(inputs) if hasattr(workload, "validate") else []
        for p in input_problems:
            print(f"perfbench: input: {p}", file=sys.stderr)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        kernel = kernel_seconds()

        def after_round():
            # a fresh-interpreter set-up sample and kernel samples after every
            # round, so that both spread over the whole run
            setups.append(setup_probe(args.workload, args.seed))
            kernel.extend(kernel_seconds())

        records = measure(workload, inputs, args.seconds, after_round, tracer)
        if tracer is not None:
            tracer.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed})
        print(json.dumps(result(records, setups, kernel, input_problems, tracer)))
        return 0
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup(inputs)


if __name__ == "__main__":
    sys.exit(main())
