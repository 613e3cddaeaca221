"""Record interleaved benchmark runs of a change and its parent in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --seeds 1-8 --parent PATH

For every workload BENCHMARK.json names and every seed, runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` once from
the root of the parent checkout (PATH) and once from the root of this one,
alternating which of the two runs first.  Each run keeps its exit code, the
last JSON line of its standard output and the ``perfbench: unscaled ...``
figures of its standard error.  A run that exits non-zero, is not
``correct`` or has failed operations is kept and marked ``ok: false``; the
summary counts it and leaves it out of the medians and ratios.  Per
workload and end-to-end metric, the summary gives each side's median and
quartiles, the change / parent ratio of every seed and the pairs the change
wins, by the direction BENCHMARK.json gives the metric.  The file also
names both git revisions (with a sha256 of the uncommitted changes of a
dirty checkout), the CPU count and the Python, numpy and scipy versions.
Nothing under ``perfbench/`` is written by this tool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNSCALED = re.compile(r"^perfbench: unscaled (.*)$", re.MULTILINE)


def parse_seeds(text: str) -> list:
    """'1-8' or '1,3,5' (or a mix, '1-3,7') as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(exit_code: int, stdout: str, stderr: str) -> dict:
    """One run's record: its exit code, the JSON object of its last output
    line (None if there is none), its unscaled figures and whether it is ok."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    found = UNSCALED.findall(stderr)
    unscaled = None
    if found:
        unscaled = {k: float(v) for k, v in
                    (item.split("=", 1) for item in found[-1].split())}
    ok = (exit_code == 0 and isinstance(result, dict) and result.get("correct") is True
          and result.get("failed") == 0)
    return {"exit_code": exit_code, "ok": ok, "result": result, "unscaled": unscaled}


def metric_values(run: dict) -> dict:
    return {k: v["value"] for k, v in run["result"]["metrics"].items()}


def spread(values: list) -> dict:
    """Median and quartiles of a side's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per workload, the count of runs and of runs not ok and, per metric,
    each side's median and quartiles over its ok runs, and the change /
    parent ratio for each seed whose two runs are both ok, with their median
    and the count of pairs the change wins (``better`` maps a metric to
    "lower" or "higher"; ties and metrics it lacks win nothing)."""
    out = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        side = {s: {r["seed"]: r for r in mine if r["side"] == s} for s in ("parent", "change")}
        pairs = [(p, side["change"][seed]) for seed, p in side["parent"].items()
                 if seed in side["change"] and p["ok"] and side["change"][seed]["ok"]]
        entry = {"runs": len(mine), "not_ok": sum(not r["ok"] for r in mine),
                 "pairs": len(pairs), "metrics": {}}
        good = {s: [metric_values(r) for r in by_seed.values() if r["ok"]]
                for s, by_seed in side.items()}
        for metric in dict.fromkeys(k for vals in good.values() for v in vals for k in v):
            m = {s: spread([v[metric] for v in vals if metric in v])
                 for s, vals in good.items() if any(metric in v for v in vals)}
            ratios = [metric_values(c)[metric] / metric_values(p)[metric] for p, c in pairs]
            sign = {"lower": 1, "higher": -1}.get(better.get(metric), 0)
            m["ratios"] = ratios
            if ratios:
                m["median_ratio"] = statistics.median(ratios)
            m["wins"] = sum(sign * (1.0 - x) > 0 for x in ratios)
            entry["metrics"][metric] = m
        out[name] = entry
    return out


def benchmark(root: Path) -> dict:
    """The root's BENCHMARK.json as the workload names, the run length in
    seconds and each end-to-end metric's direction ("lower" or "higher")."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "seconds": float(spec["run_seconds"]),
            "better": {m["name"]: m["better"] for m in spec["end_to_end"]}}


def git_revision(path: Path) -> dict:
    """HEAD and whether the checkout is dirty; a dirty one also gets the
    sha256 of its diff against HEAD and of its untracked files (names and
    contents), BENCH_*.json left out, so the record names the measured tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True)
        return proc.stdout if proc.returncode == 0 else None

    rest = ["--", ".", ":(exclude)BENCH_*.json"]
    status = git("status", "--porcelain", *rest)
    rev = git("rev-parse", "HEAD")
    out = {"rev": rev and rev.decode().strip(), "dirty": None if status is None else bool(status)}
    if out["dirty"]:
        h = hashlib.sha256(git("diff", "--binary", "HEAD", *rest) or b"")
        untracked = git("ls-files", "-z", "--others", "--exclude-standard", *rest) or b""
        for name in untracked.split(b"\0"):
            if name:
                h.update(b"\0" + name + b"\0" + (path / name.decode()).read_bytes())
        out["tree_sha256"] = h.hexdigest()
    return out


def versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    rec = parse_run(proc.returncode, proc.stdout, proc.stderr)
    rec["elapsed_s"] = time.perf_counter() - t0
    if not rec["ok"]:
        rec["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--seeds", default="1-8", help="e.g. 1-8 or 1,2,5")
    args = ap.parse_args(argv)

    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"bench_record: no perfbench/run.py under {parent}", file=sys.stderr)
        return 2
    roots = {"parent": parent, "change": ROOT}
    bench = benchmark(ROOT)
    seeds = parse_seeds(args.seeds)
    runs = []
    k = 0
    for workload in bench["workloads"]:
        for seed in seeds:
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            k += 1
            for pos, side in enumerate(order):
                rec = run_one(roots[side], workload, seed, bench["seconds"])
                rec.update(workload=workload, seed=seed, side=side, position=pos)
                runs.append(rec)
                wall = rec["result"]["metrics"]["wall_s"]["value"] if rec["ok"] else None
                print(f"bench_record: {workload} seed {seed} {side}: ok={rec['ok']} "
                      f"wall_s={wall}", file=sys.stderr)
    record = {
        "pr": args.pr,
        "command": ["perfbench/run.py", "--seconds", repr(bench["seconds"]), "--trace", "0"],
        "revisions": {side: git_revision(root) for side, root in roots.items()},
        "host": {"cpu_count": os.cpu_count(), **versions()},
        "seeds": seeds,
        "workloads": bench["workloads"],
        "runs": runs,
        "summary": summarize(runs, bench["better"]),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
