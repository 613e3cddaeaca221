"""Fast test of the benchmark itself, on shrunk workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Every workload must run and pass its checks, and one deliberate corruption
per workload must be caught, which shows the checks are not vacuous.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run

workloads = run.import_workloads()
from delone import jsonio  # noqa: E402
from delone import tessellation as tess  # noqa: E402

import tracing  # noqa: E402

SMALL = {
    "synth_5rF": lambda tmp: workloads.Synth(box_rF=2.0, grid=(12, 12)),
    "certify_deep": lambda tmp: workloads.CertifyDeep(cols=10, rows=10, depth=3),
    "pipeline_3rF": lambda tmp: workloads.Pipeline(box_rF=1.0, family_depth=1,
                                                   workdir_root=str(tmp)),
}


def small_round(name, tmp_path, seed=5):
    wl = SMALL[name](tmp_path)
    inputs = wl.setup(seed)
    state, failed = run.run_round(wl.ops(inputs))
    return wl, inputs, state, failed


def problems(wl, inputs, state):
    return {k: v for k, v in wl.check(inputs, state).items() if v}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes(name, tmp_path):
    wl, inputs, state, failed = small_round(name, tmp_path)
    assert failed == []
    assert set(state) == {op for op, _ in wl.ops(inputs)}
    assert problems(wl, inputs, state) == {}
    if hasattr(wl, "validate"):
        assert wl.validate(inputs) == []


def _drop_first_top(cx):
    by_dim = dict(cx.simplices_by_dim)
    by_dim[2] = by_dim[2][1:]
    return dataclasses.replace(cx, simplices_by_dim=by_dim)


def test_synth_catches_dropped_simplex_and_close_sites(tmp_path):
    wl, inputs, state, _ = small_round("synth_5rF", tmp_path)
    bad = dict(state, build_delaunay=_drop_first_top(state["build_delaunay"]))
    assert "build_delaunay" in problems(wl, inputs, bad)

    net = state["synthesize"]
    pts = net.points.copy()
    pts[1] = pts[0] + [0.5 * net.d1, 0.0]
    bad = dict(state, synthesize=dataclasses.replace(net, points=pts))
    assert any("separation" in p for p in problems(wl, inputs, bad)["synthesize"])


def test_synth_catches_swapped_product_entries(tmp_path):
    # the two images stay in the table, so injectivity and class sizes hold;
    # only the recomputed interpolation can tell them apart
    wl, inputs, state, _ = small_round("synth_5rF", tmp_path)
    ps = state["product_structure"]
    gi, p, q = len(ps.grid) // 2, ps.params[1], ps.params[-1]
    table = dict(ps.table)
    table[(gi, p)], table[(gi, q)] = table[(gi, q)], table[(gi, p)]
    bad = dict(state, product_structure=dataclasses.replace(ps, table=table))
    assert "product_structure" in problems(wl, inputs, bad)


def test_certify_catches_removed_override(tmp_path):
    wl, inputs, state, _ = small_round("certify_deep", tmp_path)
    clean = dataclasses.replace(inputs["adversarial"], overrides=())
    bad = dict(state, certify_adversarial=workloads.nsy.certify_family_stability(
        inputs["net"], state["build_delaunay"], clean, inputs["bundle"]))
    assert "certify_adversarial" in problems(wl, inputs, bad)


def test_certify_rejects_input_without_separation(tmp_path):
    wl = SMALL["certify_deep"](tmp_path)
    inputs = wl.setup(5)
    pts = inputs["net"].points.copy()
    pts[1] = pts[0] + [0.5 * inputs["net"].d1, 0.0]
    inputs["net"] = dataclasses.replace(inputs["net"], points=pts)
    assert wl.validate(inputs)


def test_pipeline_catches_corrupted_artifacts(tmp_path):
    wl, inputs, state, _ = small_round("pipeline_3rF", tmp_path)
    f = inputs["files"]
    cx = jsonio.read(f["cx.json"])
    tops = [i for i, s in enumerate(cx["simplices"]) if len(s["verts"]) == 3]
    del cx["simplices"][tops[0]]
    jsonio.write(f["cx.json"], cx)
    assert "triangulate" in problems(wl, inputs, state)

    net = jsonio.read(f["net.json"])
    net["points"][0][0] += 1e-9
    jsonio.write(f["net.json"], net)
    assert "synthesize" in problems(wl, inputs, state)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_matches_benchmark_json(trace, tmp_path):
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    wl = SMALL["pipeline_3rF"](tmp_path)
    inputs = wl.setup(3)
    setups = [{"setup_s": 0.5, "bundle_s": inputs["bundle_s"]}]
    tracer = tracing.Tracer() if trace else None
    records = run.measure(wl, inputs, 0.0, lambda: setups.append(setups[0]), tracer)
    out = run.result(records, setups, [run.KERNEL_REF_S], [], tracer)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == len(records) * len(wl.COMMANDS)
    want = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if trace:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        assert m["netsynth.select_point_calls"] == m["netsynth.forbidden_regions_calls"] > 0
        assert m["tessellation.build_delaunay_calls"] == 1 + m["netsynth.certify_rebuilds"]
        assert m["netsynth.certify_params"] == 2
        # the wrappers are gone once the traced round ends
        assert not hasattr(tess.build_delaunay, "__wrapped__")
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    assert np.isfinite([v["value"] for v in out["metrics"].values()]).all()


def test_time_metrics_scale_with_the_kernel():
    # a run whose kernel took twice the reference time reads half its times
    records = [{"wall": w, "sites": 100, "ops": 1, "failed": 0, "problems": {},
                "rss_kib": 1024} for w in (1.0, 3.0, 2.0)]
    setups = [{"setup_s": 0.4}, {"setup_s": 0.8}, {"setup_s": 0.6}]
    kernel = [2.0 * run.KERNEL_REF_S] * 3 + [9.0]
    m = {k: v["value"] for k, v in run.result(records, setups, kernel, [], None)["metrics"].items()}
    assert m["wall_s"] == pytest.approx(1.0)
    assert m["setup_s"] == pytest.approx(0.3)
    assert m["sites_per_s"] == pytest.approx(100.0)
    assert m["peak_rss_mib"] == 1.0
