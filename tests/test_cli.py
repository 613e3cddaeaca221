import ast
import hashlib
import inspect
import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import delone
from delone import cli, jsonio
from delone import constants as consts
from delone import metrics as mt
from delone import netsynth as nsy
from delone import tessellation as tess
from delone.errors import UnsupportedDimError


@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory, bundle2):
    path = tmp_path_factory.mktemp("cli") / "bundle.json"
    jsonio.write(path, jsonio.bundle_to_dict(bundle2))
    return str(path)


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory, bundle2, bundle_file):
    """Net + complex files for a small synthesized disk."""
    d = tmp_path_factory.mktemp("tiny")
    K = nsy.Region.disk([0.0, 0.0], 0.15)
    net, _ = nsy.synthesize_net(K, bundle2, seed=5)
    cx = tess.build_delaunay(net, None)
    net_path = d / "net.json"
    cx_path = d / "cx.json"
    jsonio.write(net_path, jsonio.net_to_dict(net))
    jsonio.write(cx_path, jsonio.complex_to_dict(cx, net.dim))
    return {"net": str(net_path), "cx": str(cx_path), "bundle": bundle_file,
            "dir": d}


def _with_columns(cert: dict, **columns) -> dict:
    """The certificate dict with the given ``per_simplex`` columns replaced."""
    return {**cert, "per_simplex": {**cert["per_simplex"], **columns}}


class TestExitCodes:
    def test_unknown_command_usage(self, capsys):
        rc = cli.main(["frobnicate"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Usage" in err

    def test_missing_required_option(self, capsys):
        rc = cli.main(["constants"])
        assert rc == 1

    def test_truncated_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "net.json"
        bad.write_text('{"v": 1, "dim":')
        rc = cli.main(["triangulate", "--net", str(bad),
                       "--out", str(tmp_path / "cx.json")])
        assert rc == 3

    def test_missing_file_is_io_error(self, tmp_path):
        rc = cli.main(["triangulate", "--net", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "cx.json")])
        assert rc == 3

    def test_bad_box_is_validation_error(self, tmp_path, bundle_file):
        rc = cli.main(["synthesize", "--bundle", bundle_file,
                       "--box", "0,0,1", "--out", str(tmp_path / "net.json")])
        assert rc == 1


class TestBadInputs:
    @pytest.mark.parametrize("box", ["0,0,a,1", "0,0,-1,1", "0,0,0,0",
                                     "0,0,nan,1", "0,0,1,inf", "0,0,1e308,1e308",
                                     "-1e308,-1e308,1e308,1e308"])
    def test_bad_box(self, tmp_path, bundle_file, capsys, box):
        capsys.readouterr()
        out = tmp_path / "net.json"
        rc = cli.main(["synthesize", "--bundle", bundle_file, "--box", box,
                       "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = _one_line_error(capsys)
        assert "--box" in err or "region.bounds" in err

    @pytest.mark.parametrize("dim", [0, 9])
    @pytest.mark.parametrize("command", ["triangulate", "duality-check", "render"])
    def test_net_dim_out_of_range(self, tiny_files, tmp_path, capsys, dim, command):
        bad = tmp_path / "net.json"
        jsonio.write(bad, {"v": 1, "dim": dim, "d1": 0.1, "d2": 0.2,
                           "points": [[0.0] * dim, [1.0] * dim]})
        args = {"triangulate": ["--out", str(tmp_path / "cx.json")],
                "duality-check": ["--complex", tiny_files["cx"]],
                "render": ["--out", str(tmp_path / "net.svg")]}[command]
        capsys.readouterr()
        assert cli.main([command, "--net", str(bad)] + args) == 1
        assert "net.dim" in _one_line_error(capsys)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_net_point(self, tiny_files, tmp_path, capsys, value):
        d = jsonio.read(tiny_files["net"])
        d["points"][0][0] = float(value)  # written as NaN / Infinity
        bad = tmp_path / "net.json"
        jsonio.write(bad, d)
        capsys.readouterr()
        rc = cli.main(["triangulate", "--net", str(bad),
                       "--out", str(tmp_path / "cx.json")])
        assert rc == 1
        assert "net.points" in _one_line_error(capsys)

    def test_ragged_net_points(self, tiny_files, tmp_path, capsys):
        d = jsonio.read(tiny_files["net"])
        d["points"][0] = [0.0]
        bad = tmp_path / "net.json"
        jsonio.write(bad, d)
        capsys.readouterr()
        rc = cli.main(["triangulate", "--net", str(bad),
                       "--out", str(tmp_path / "cx.json")])
        assert rc == 1
        assert "net.points" in _one_line_error(capsys)

    def test_string_net_coordinate(self, tiny_files, tmp_path, capsys):
        d = jsonio.read(tiny_files["net"])
        d["points"][0][1] = repr(d["points"][0][1])
        bad = tmp_path / "net.json"
        jsonio.write(bad, d)
        capsys.readouterr()
        rc = cli.main(["triangulate", "--net", str(bad),
                       "--out", str(tmp_path / "cx.json")])
        assert rc == 1
        assert "net.points: point 0" in _one_line_error(capsys)

    def test_huge_box_rejected_before_allocating(self, tmp_path, bundle_file, capsys):
        capsys.readouterr()
        out = tmp_path / "net.json"
        tracemalloc.start()
        try:
            rc = cli.main(["synthesize", "--bundle", bundle_file,
                           "--box", "0,0,1e9,1e9", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert not out.exists()
        assert peak < 1 << 20  # bytes: no grid was allocated
        err = _one_line_error(capsys)
        assert "region.bounds" in err and "bytes of physical memory" in err

    @pytest.mark.parametrize("change,path", [
        (lambda c: {"per_simplex": 5}, "certificate.v"),
        (lambda c: {**c, "pass": "yes"}, "certificate.pass"),
        (lambda c: {**c, "worst": []}, "certificate.worst"),
        (lambda c: {**c, "per_simplex": 5}, "certificate.per_simplex"),
        (lambda c: _with_columns(c, simplex=3), "certificate.per_simplex.simplex"),
        (lambda c: _with_columns(
            c, simplex=[[0.5, 1, 2]] + c["per_simplex"]["simplex"][1:]),
         "certificate.per_simplex.simplex"),
        (lambda c: _with_columns(
            c, robustness_margin=["low"] + c["per_simplex"]["robustness_margin"][1:]),
         "certificate.per_simplex.robustness_margin[0]"),
        (lambda c: _with_columns(
            c, robustness_margin=c["per_simplex"]["robustness_margin"][1:]),
         "certificate.per_simplex.robustness_margin"),
    ])
    def test_bad_certificate_for_render(self, tiny_files, tmp_path, capsys,
                                        change, path):
        good = tmp_path / "cert.json"
        assert cli.main(["certify", "--net", tiny_files["net"], "--complex",
                         tiny_files["cx"], "--bundle", tiny_files["bundle"],
                         "--out", str(good)]) == 0
        bad = tmp_path / "bad.json"
        jsonio.write(bad, change(jsonio.read(good)))
        out = tmp_path / "net.svg"
        capsys.readouterr()
        rc = cli.main(["render", "--net", tiny_files["net"], "--complex",
                       tiny_files["cx"], "--certificate", str(bad), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert f"{path}:" in _one_line_error(capsys)

    @pytest.mark.parametrize("args", [
        ["constants", "--dim", "3"],  # the default practical ladder is for dim 2
        ["constants", "--dim", "5", "--mode", "paper"],  # eps4 underflows float64
        ["constants", "--dim", "9", "--mode", "paper"],
        ["synthesize", "--box", "0,0,0.1,0.1", "--seed", "-1"],
        ["certify", "--family-seed", "-1"],
    ])
    def test_out_of_range_arguments(self, tiny_files, tmp_path, capsys, args):
        inputs = {"synthesize": ["--bundle", tiny_files["bundle"]],
                  "certify": ["--net", tiny_files["net"], "--complex", tiny_files["cx"],
                              "--bundle", tiny_files["bundle"]]}.get(args[0], [])
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert cli.main(args + inputs + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_non_numeric_eps(self, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "b.json"
        rc = cli.main(["constants", "--eps", "1e-8,a,1,1", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "--eps" in _one_line_error(capsys)


class TestConstantsCommand:
    def test_sphere_bundle_runs_the_pipeline(self, tmp_path):
        """At the practical eps0 the sphere's working radius is the closed
        form, and its bundle runs every command on a 3 rF box."""
        b, n, c, ce = (str(tmp_path / x) for x in
                       ("bundle.json", "net.json", "cx.json", "cert.json"))
        assert cli.main(["constants", "--metric", "sphere:1", "--out", b]) == 0
        bundle = jsonio.bundle_from_dict(jsonio.read(b))
        assert bundle.rF == mt.find_lambda_eps(mt.MetricModel.sphere(1.0), bundle.eps0)
        assert bundle.rF == pytest.approx(1.9642e-12, rel=1e-4)
        side = 3.0 * bundle.rF
        assert cli.main(["synthesize", "--bundle", b, "--box", f"0,0,{side!r},{side!r}",
                         "--seed", "1", "--out", n]) == 0
        assert cli.main(["triangulate", "--net", n, "--out", c]) == 0
        assert cli.main(["certify", "--net", n, "--complex", c, "--bundle", b,
                         "--family-depth", "2", "--out", ce]) == 0
        assert cli.main(["duality-check", "--net", n, "--complex", c]) == 0
        assert jsonio.read(ce)["pass"] is True

    def test_writes_valid_bundle(self, tmp_path):
        out = tmp_path / "bundle.json"
        rc = cli.main(["constants", "--dim", "2", "--out", str(out)])
        assert rc == 0
        b = jsonio.bundle_from_dict(jsonio.read(out))
        assert b.n == 2 and b.mode == "practical"

    def test_paper_mode_n1(self, tmp_path):
        out = tmp_path / "paper.json"
        rc = cli.main(["constants", "--dim", "1", "--mode", "paper",
                       "--out", str(out)])
        assert rc == 0
        b = jsonio.bundle_from_dict(jsonio.read(out))
        assert b.mode == "paper" and b.Cn == 55

    def test_paper_mode_n4_loads_back(self, tmp_path):
        out = tmp_path / "paper.json"
        rc = cli.main(["constants", "--dim", "4", "--mode", "paper",
                       "--out", str(out)])
        assert rc == 0
        b = jsonio.bundle_from_dict(jsonio.read(out))
        assert b.mode == "paper" and b.n == 4 and b.eps0 > 0

    @pytest.mark.parametrize("command", ["synthesize", "certify"])
    def test_off_formula_gs_delta_refused(self, tiny_files, tmp_path, capsys,
                                          command):
        d = jsonio.read(tiny_files["bundle"])
        d["gs_delta"] = 2.0 * d["gs_delta"]  # would widen eps0's room
        bad = tmp_path / "bundle.json"
        jsonio.write(bad, d)
        args = {"synthesize": ["synthesize", "--box", "0,0,0.1,0.1"],
                "certify": ["certify", "--net", tiny_files["net"],
                            "--complex", tiny_files["cx"]]}[command]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert cli.main(args + ["--bundle", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert "bundle: gs_delta: " in _one_line_error(capsys)

    @pytest.mark.parametrize("case", ["paper3-rho-hat-up-1pct", "paper4-rho-hat-1e-16",
                                      "small-rF-d-moved"])
    def test_off_formula_ladder_refused_at_every_scale(self, tmp_path, capsys, case):
        # each entry is compared to its formula relative to its own size: an
        # absolute tolerance (1e-15 for rho_hat, 1e-12 max(1, rF) for the
        # d-ladder) let all three bundles load
        if case.startswith("paper"):
            d = jsonio.bundle_to_dict(consts.paper_bundle(int(case[5])))
            d["rho_hat"][0][0] = 1e-16 if case.endswith("1e-16") else d["rho_hat"][0][0] * 1.01
            want = "bundle: rho_hat: rho_hat_0 != 18*eps2"
        else:
            d = jsonio.bundle_to_dict(consts.default_practical_bundle(2))
            d["rF"], d["d"] = 1e-10, [r * 1e-10 for r in consts.D_LADDER_RATIOS]
            jsonio.bundle_from_dict(d)  # the untouched small-rF ladder loads
            d["d"] = [x * 1.01 for x in d["d"]]
            want = "bundle: d: d-ladder not proportional to rF"
        bad = tmp_path / "bundle.json"
        jsonio.write(bad, d)
        out = tmp_path / "net.json"
        capsys.readouterr()
        assert cli.main(["synthesize", "--bundle", str(bad), "--box", "0,0,0.1,0.1",
                         "--out", str(out)]) == 1
        assert not out.exists()
        assert want in _one_line_error(capsys)

    def test_explicit_eps(self, tmp_path):
        out = tmp_path / "b.json"
        rc = cli.main(["constants", "--dim", "2",
                       "--eps", "1e-8,1e-5,1e-5,2e-9", "--out", str(out)])
        assert rc == 0

    def test_invalid_eps_rejected(self, tmp_path):
        rc = cli.main(["constants", "--dim", "2", "--eps", "1e-8,1e-5",
                       "--out", str(tmp_path / "b.json")])
        assert rc == 1

    @pytest.mark.parametrize("eps, bad", [("0,1e-5,1e-5,2e-9", "eps1"),
                                          ("1e-8,0,1e-5,2e-9", "eps2"),
                                          ("1e-8,1e-5,0,2e-9", "eps3"),
                                          ("1e-8,1e-5,1e-5,inf", "eps4")])
    def test_bad_eps_entry_is_named(self, tmp_path, capsys, eps, bad):
        # a bad entry is named, not the eps0 whose default it would poison
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert cli.main(["constants", "--dim", "2", "--eps", eps, "--out", str(out)]) == 1
        assert not out.exists()
        assert _one_line_error(capsys).strip() == \
            f"validation error: {bad}: must be positive and finite"

    @pytest.mark.parametrize("e0", ["0", "-1", "-0.0"])
    def test_nonpositive_eps0_refused(self, tmp_path, capsys, e0):
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert cli.main(["constants", "--eps", f"1e-8,1e-5,1e-5,2e-9,{e0}",
                         "--out", str(out)]) == 1
        assert not out.exists()
        assert "eps0: " in _one_line_error(capsys)

    @pytest.mark.parametrize("args", [["--metric", "flat:5"],
                                      ["--mode", "paper", "--dim", "3", "--metric", "sphere:1"],
                                      ["--mode", "paper", "--dim", "1", "--metric", "torus:1,1"]])
    def test_metric_of_another_dimension_refused(self, tmp_path, capsys, args):
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert cli.main(["constants", *args, "--out", str(out)]) == 1
        assert not out.exists()
        assert "metric: " in _one_line_error(capsys)

    @pytest.mark.parametrize("selector, digest", [
        ("flat:2", "fcdde416aa1ffc16c213c399f10c871c57a3795f6b850604f0a5a5f8d21474cc"),
        ("sphere:1", "17b62fa730544a5df0ae1845d407d5edcee68f51f6981df0542d0175adfb0aee"),
        ("torus:1,1", "f77a3ec6464039d5198478158e7f14d589d40c52210821afd3b8cc198b0f4f17")])
    def test_metric_of_the_bundle_dimension_accepted(self, tmp_path, selector, digest):
        out = tmp_path / "b.json"
        assert cli.main(["constants", "--dim", "2", "--metric", selector,
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _command_args(files, tmp_path, command):
    """The arguments of one pipeline command on the net and complex files;
    "certify-over-budget" certifies with an override longer than the budget."""
    net, cx, out = files["net"], files["cx"], str(tmp_path / "out")
    certify = ["certify", "--net", net, "--complex", cx, "--bundle",
               files["bundle"], "--family-depth", "1", "--out", out]
    return {"triangulate": ["triangulate", "--net", net, "--out", out],
            "certify": certify,
            "certify-over-budget": certify + ["--adversarial", "1:0:1.0,0.0"],
            "duality-check": ["duality-check", "--net", net, "--complex", cx],
            "render": ["render", "--net", net, "--complex", cx, "--out", out]}[command]


class TestPipeline:
    def test_triangulate_and_checks(self, tiny_files, tmp_path, capsys):
        cx_out = tmp_path / "cx2.json"
        rc = cli.main(["triangulate", "--net", tiny_files["net"],
                       "--out", str(cx_out)])
        assert rc == 0
        assert cx_out.read_text() == open(tiny_files["cx"]).read()
        capsys.readouterr()
        rc = cli.main(["duality-check", "--net", tiny_files["net"],
                       "--complex", tiny_files["cx"]])
        assert rc == 0
        assert re.fullmatch(r"duality holds on \d+ checks \(tops\)\n", capsys.readouterr().err)

    def test_certify_passes(self, tiny_files, tmp_path):
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", "--net", tiny_files["net"],
                       "--complex", tiny_files["cx"],
                       "--bundle", tiny_files["bundle"],
                       "--family-depth", "1", "--out", str(out)])
        assert rc == 0
        cert = jsonio.read(out)
        assert cert["pass"] is True

    @pytest.mark.parametrize("command, trees, code", [
        ("triangulate", 1, 0), ("certify", 1, 0), ("certify-over-budget", 2, 2),
        ("duality-check", 1, 0), ("render", 1, 0)])
    def test_one_kd_tree_per_point_set(self, tiny_files, tmp_path, monkeypatch,
                                       command, trees, code):
        # every nearest-site query asks Net.tree: the loaded net's tree, which
        # also answers its separation query once, and an over-budget
        # override's translate's own
        import scipy.spatial

        built, queries = [], []

        class CountingTree(scipy.spatial.cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(len(data))
                super().__init__(data, *args, **kwargs)

            def query(self, x, k=1, **kwargs):
                queries.extend([len(x)] if k == 2 else [])  # Net.closest_pair's k
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        assert cli.main(_command_args(tiny_files, tmp_path, command)) == code
        m = len(jsonio.read(tiny_files["net"])["points"])
        assert built == [m] * trees
        assert queries == [m]

    @pytest.mark.parametrize("command, runs, code", [
        ("triangulate", 1, 0), ("certify", 1, 0), ("certify-over-budget", 2, 2),
        ("duality-check", 0, 0), ("render", 0, 0)])
    def test_one_qhull_run_per_point_set(self, tiny_files, tmp_path, monkeypatch,
                                         command, runs, code):
        # the build and the certifier's near-miss pass read the loaded net's
        # Net.qhull, an over-budget override's translate its own; the
        # duality check never triangulates
        import scipy.spatial

        built = []

        class CountingDelaunay(scipy.spatial.Delaunay):
            def __init__(self, points, *args, **kwargs):
                built.append(len(points))
                super().__init__(points, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "Delaunay", CountingDelaunay)
        assert cli.main(_command_args(tiny_files, tmp_path, command)) == code
        assert built == [len(jsonio.read(tiny_files["net"])["points"])] * runs

    def test_certify_adversarial_fails(self, tiny_files, tmp_path):
        out = tmp_path / "cert_bad.json"
        rc = cli.main(["certify", "--net", tiny_files["net"],
                       "--complex", tiny_files["cx"],
                       "--bundle", tiny_files["bundle"],
                       "--family-depth", "1",
                       "--adversarial", "1:0:1.0,0.0",
                       "--out", str(out)])
        assert rc == 2
        cert = jsonio.read(out)
        assert cert["pass"] is False
        assert cert["worst"]["param"] == "1"
        assert cert["worst"]["quantity"] is not None

    def test_certify_net_with_lowered_d1_fails_fast(self, tmp_path, bundle_file,
                                                     bundle2):
        # a valid 3 rF net with d1 lowered 100x: the near-miss search would
        # span ~1.5e8 triples; the drift bound on it fails the certificate
        K = nsy.Region.box([0.0, 0.0], [3.0 * bundle2.rF, 3.0 * bundle2.rF])
        net, _ = nsy.synthesize_net(K, bundle2, seed=1)
        cx = tess.build_delaunay(net, None)
        net_d = jsonio.net_to_dict(net)
        net_d["d1"] = net.d1 / 100.0
        jsonio.write(tmp_path / "net.json", net_d)
        jsonio.write(tmp_path / "cx.json", jsonio.complex_to_dict(cx, net.dim))
        out = tmp_path / "cert.json"
        t0 = time.perf_counter()
        rc = cli.main(["certify", "--net", str(tmp_path / "net.json"),
                       "--complex", str(tmp_path / "cx.json"), "--bundle", bundle_file,
                       "--family-depth", "2", "--out", str(out)])
        assert time.perf_counter() - t0 < 30.0
        assert rc == 2
        cert = jsonio.read(out)
        assert cert["worst"]["quantity"] == "near_miss"
        assert cert["budget"]["near_miss"] is None

    @pytest.mark.parametrize("scale", [3e-105, 1e110])
    @pytest.mark.parametrize("command, code", [("duality-check", 0), ("certify", 2)])
    def test_extreme_scale_nets_return_at_once(self, tmp_path, bundle_file, capsys,
                                               scale, command, code):
        # a 36-site triangular lattice net scaled so that d1 leaves
        # v2_constant's range [1e-100, 1e100]: below it e1 ** 3 is subnormal
        # and the ulp descent would not end, above it e1 ** 3 overflows
        s = 0.142 * scale
        i, j = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        pts = np.stack([(i + 0.5 * (j % 2)) * s, j * s * np.sqrt(3.0) / 2.0],
                       axis=-1).reshape(-1, 2)
        net = tess.Net(dim=2, points=pts, d1=0.1 * scale, d2=0.2 * scale)
        net_path, cx_path, out = (str(tmp_path / f) for f in ("net.json", "cx.json", "c.json"))
        jsonio.write(net_path, jsonio.net_to_dict(net))
        assert cli.main(["triangulate", "--net", net_path, "--out", cx_path]) == 0
        capsys.readouterr()
        args = {"duality-check": ["duality-check", "--net", net_path, "--complex", cx_path],
                "certify": ["certify", "--net", net_path, "--complex", cx_path,
                            "--bundle", bundle_file, "--out", out]}[command]
        t0 = time.perf_counter()
        assert cli.main(args) == code
        assert time.perf_counter() - t0 < 30.0
        err = capsys.readouterr().err
        assert "Traceback" not in err and "1e-100 <= e1 < e2 <= 1e100" in err
        if command == "duality-check":
            assert err.startswith("duality: the tops certificate does not apply "
                                  "(no separation bound: ")
        else:
            assert jsonio.read(out)["worst"]["quantity"] == "budget"


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


class TestBadCertifyArguments:
    def _certify(self, files, tmp_path, *extra):
        return cli.main(["certify", "--net", files["net"], "--complex", files["cx"],
                         "--bundle", files["bundle"], *extra,
                         "--out", str(tmp_path / "cert.json")])

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_family_depth_below_one(self, tiny_files, tmp_path, capsys, depth):
        capsys.readouterr()
        assert self._certify(tiny_files, tmp_path, "--family-depth", depth) == 1
        assert "family.depth" in _one_line_error(capsys)

    def test_family_depth_above_sixteen(self, tiny_files, tmp_path, capsys):
        # 2^17 parameter strings would be built only to be listed
        capsys.readouterr()
        assert self._certify(tiny_files, tmp_path, "--family-depth", "17") == 1
        assert "family.depth" in _one_line_error(capsys)

    @pytest.mark.parametrize("adv", [
        "bogus", "1:0", "1:x:1.0,0.0", "1:0:a,b",  # malformed
        "2:0:1.0,0.0", "11:0:1.0,0.0",  # not a parameter of depth 1
        "1:99999:1.0,0.0", "1:-1:1.0,0.0",  # index outside the net
        "1:0:1.0", "1:0:1.0,nan",  # not a finite 2-vector
        "1:0:1e308,1e308", "1:0:0,-2e150",  # beyond jsonio.MAX_COORDINATE
    ])
    def test_bad_adversarial_override(self, tiny_files, tmp_path, capsys, adv):
        capsys.readouterr()
        assert self._certify(tiny_files, tmp_path, "--family-depth", "1",
                             "--adversarial", adv) == 1
        assert "--adversarial" in _one_line_error(capsys)


class TestNetComplexMismatch:
    @pytest.fixture
    def mismatched(self, tiny_files, tmp_path):
        """Complex files the net's loader must refuse: a top simplex naming
        vertex 99999, a dim other than the net's, the schema before top
        simplices only, a ``regular`` that is not a bool, and a center of
        booleans."""
        cx = jsonio.read(tiny_files["cx"])
        top = cx["simplices"]
        files = {
            "vertex": {**cx, "simplices": [{**top[0], "verts": [0, 1, 99999]}]},
            "dim": {**cx, "dim": 3},
            "v1": {**cx, "v": 1},
            "regular": {**cx, "regular": "no"},
            "center": {**cx, "simplices": [{**top[0], "center": [True, False]}] + top[1:]},
        }
        for kind, d in files.items():
            jsonio.write(tmp_path / f"{kind}.json", d)
        return {kind: str(tmp_path / f"{kind}.json") for kind in files}

    NAMED = {"vertex": "99999", "dim": "complex.dim", "v1": "complex.v",
             "regular": "complex.regular", "center": "complex.simplices[0]"}

    @pytest.mark.parametrize("kind", sorted(NAMED))
    @pytest.mark.parametrize("command", ["certify", "duality-check", "render"])
    def test_exits_one_with_message(self, tiny_files, mismatched, tmp_path,
                                    capsys, kind, command):
        args = [command, "--net", tiny_files["net"], "--complex", mismatched[kind]]
        if command == "certify":
            args += ["--bundle", tiny_files["bundle"],
                     "--out", str(tmp_path / "cert.json")]
        if command == "render":
            args += ["--out", str(tmp_path / "net.svg")]
        capsys.readouterr()
        assert cli.main(args) == 1
        assert self.NAMED[kind] in _one_line_error(capsys)


def _reference_svg(net, cx, certificate):
    """``render_svg`` as it drew a complex that stored every face: Delaunay
    edges from the face closure of the top simplices, Voronoi edges from a
    dict of each codimension-1 face's parents."""
    pts = net.points
    lo = pts.min(axis=0) - net.d2
    hi = pts.max(axis=0) + net.d2
    size = 800.0
    scale = size / float(np.max(hi - lo))

    def sx(p):
        return (p[0] - lo[0]) * scale

    def sy(p):
        return size - (p[1] - lo[1]) * scale

    columns = certificate["per_simplex"]
    margins = [col for k, col in columns.items() if k.endswith("_margin")]
    bad = {tuple(row) for i, row in enumerate(columns["simplex"])
           if any(col[i] < 0 for col in margins)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    edges = sorted({e for s in cx.top(2) for e in itertools.combinations(s.vertices, 2)})
    for e in edges:
        a, b = pts[e[0]], pts[e[1]]
        parts.append(
            f'<line x1="{sx(a):.2f}" y1="{sy(a):.2f}" x2="{sx(b):.2f}" '
            f'y2="{sy(b):.2f}" stroke="#7799cc" stroke-width="1"/>')
    by_face: dict = {}
    for s in cx.top(2):
        for i in range(3):
            face = s.vertices[:i] + s.vertices[i + 1:]
            by_face.setdefault(face, []).append(s)
    for face, parents in sorted(by_face.items()):
        if len(parents) == 2:
            c1, c2 = parents[0].sphere.center, parents[1].sphere.center
            parts.append(
                f'<line x1="{sx(c1):.2f}" y1="{sy(c1):.2f}" x2="{sx(c2):.2f}" '
                f'y2="{sy(c2):.2f}" stroke="#cc9944" stroke-width="0.7"/>')
    for s in cx.top(2):
        if tuple(s.vertices) in bad:
            poly = " ".join(f"{sx(pts[v]):.2f},{sy(pts[v]):.2f}" for v in s.vertices)
            parts.append(f'<polygon points="{poly}" fill="rgba(220,40,40,0.45)" '
                         f'stroke="#cc2222" stroke-width="2"/>')
    for p in pts:
        parts.append(f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="2.5" '
                     f'fill="#223355"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class TestRender:
    def test_bytes_equal_to_the_face_dict_renderer(self, small_net_pack, small_complex,
                                                   tmp_path):
        net = small_net_pack["net"]
        verts = small_complex.top_arrays(2)[0]
        margins = [0.0] * len(verts)
        margins[100] = -0.01
        cert = {"per_simplex": {"simplex": verts.tolist(), "robustness_margin": margins},
                "worst": {}}
        svg = cli.render_svg(net, small_complex, cert)
        assert svg == _reference_svg(net, small_complex, cert)
        assert svg.count("<polygon") == 1
        # and through the files the render command reads
        jsonio.write(tmp_path / "net.json", jsonio.net_to_dict(net))
        jsonio.write(tmp_path / "cx.json", jsonio.complex_to_dict(small_complex, 2))
        jsonio.write(tmp_path / "cert.json", {**cert, "v": 4, "pass": False,
                                              "family": {}, "budget": {}})
        assert cli.main(["render", "--net", str(tmp_path / "net.json"),
                         "--complex", str(tmp_path / "cx.json"),
                         "--certificate", str(tmp_path / "cert.json"),
                         "--out", str(tmp_path / "net.svg")]) == 0
        assert (tmp_path / "net.svg").read_text() == svg

    def test_three_point_svg(self, tmp_path):
        net = tess.Net(dim=2,
                       points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       d1=0.5, d2=0.8)
        cx = tess.build_delaunay(net, None)
        net_path = tmp_path / "net.json"
        cx_path = tmp_path / "cx.json"
        out = tmp_path / "net.svg"
        jsonio.write(net_path, jsonio.net_to_dict(net))
        jsonio.write(cx_path, jsonio.complex_to_dict(cx, 2))
        rc = cli.main(["render", "--net", str(net_path),
                       "--complex", str(cx_path), "--out", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.count("<circle") == 3
        assert svg.count('stroke="#7799cc"') == 3  # the three edges
        assert svg.startswith("<svg")

    def test_render_svg_dim3_raises(self):
        net = tess.Net(dim=3, points=np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]],
                       d1=0.5, d2=0.8)
        with pytest.raises(UnsupportedDimError):
            cli.render_svg(net, None)

    def test_dim3_exit_code(self, tmp_path):
        net = tess.Net(dim=3,
                       points=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                       d1=0.5, d2=0.8)
        net_path = tmp_path / "net3.json"
        jsonio.write(net_path, jsonio.net_to_dict(net))
        rc = cli.main(["render", "--net", str(net_path),
                       "--out", str(tmp_path / "x.svg")])
        assert rc == 1

    def test_failed_certificate_highlights(self, tmp_path):
        net = tess.Net(dim=2,
                       points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       d1=0.5, d2=0.8)
        cx = tess.build_delaunay(net, None)
        cert = {"per_simplex": {"simplex": [[0, 1, 2]], "robustness_margin": [-0.01]},
                "worst": {}}
        svg = cli.render_svg(net, cx, cert)
        assert "<polygon" in svg


class TestOutputPath:
    """An --out that cannot be written is an I/O error (exit 3) on one line,
    for the JSON writers and for render alike."""

    @pytest.fixture(params=["directory", "missing parent"])
    def bad_out(self, request, tmp_path):
        if request.param == "directory":
            (tmp_path / "out").mkdir()
            return str(tmp_path / "out")
        return str(tmp_path / "absent" / "out.json")

    @pytest.mark.parametrize("command", ["constants", "triangulate", "render"])
    def test_exit_three_one_line(self, tiny_files, bad_out, capsys, command):
        args = {"constants": ["constants"],
                "triangulate": ["triangulate", "--net", tiny_files["net"]],
                "render": ["render", "--net", tiny_files["net"]]}[command]
        capsys.readouterr()
        assert cli.main(args + ["--out", bad_out]) == 3
        err = _one_line_error(capsys)
        assert err.startswith("I/O error: ") and bad_out in err

    def test_overwrite_in_place(self, tiny_files, tmp_path):
        """Rewriting an artifact over a longer file leaves exactly its bytes."""
        out = tmp_path / "net.svg"
        out.write_text("x" * 10**6)
        assert cli.main(["render", "--net", tiny_files["net"], "--out", str(out)]) == 0
        fresh = tmp_path / "fresh.svg"
        assert cli.main(["render", "--net", tiny_files["net"], "--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()


class TestStdout:
    def test_dash_writes_to_stdout(self, capsys):
        rc = cli.main(["constants", "--dim", "1", "--mode", "paper",
                       "--out", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"v": 1' in out

    def test_render_dash_writes_svg_to_stdout(self, tiny_files, tmp_path, capsys,
                                              monkeypatch):
        """render's --out - is standard output, as for the JSON commands,
        not a file named "-"."""
        monkeypatch.chdir(tmp_path)
        args = ["render", "--net", tiny_files["net"], "--complex", tiny_files["cx"]]
        assert cli.main(args + ["--out", "net.svg"]) == 0
        capsys.readouterr()
        assert cli.main(args + ["--out", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "net.svg").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.svg"]


def test_cli_does_not_import_scipy_optimize(tmp_path):
    """The constants and synthesize commands run without scipy.optimize or
    scipy.spatial."""
    code = """
import sys
from delone import cli, jsonio
from delone import constants as consts
from delone import metrics as mt
bundle, net = sys.argv[1], sys.argv[2]
assert cli.main(["constants", "--out", bundle]) == 0
rF = jsonio.read(bundle)["rF"]
assert cli.main(["synthesize", "--bundle", bundle, "--box", f"0,0,{rF!r},{rF!r}",
                 "--seed", "1", "--out", net]) == 0
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
assert "scipy.spatial" not in sys.modules, "scipy.spatial was imported"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "b.json"),
                           str(tmp_path / "net.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_never_imports_scipy_optimize():
    """No module of the package imports scipy.optimize, at any level."""
    found = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""  # None for "from . import x"
                names = [f"{mod}.{a.name}" for a in node.names] + [mod]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_package_imports_no_private_names():
    """No module of the package imports an underscore name from another of
    its modules, or reads one as an attribute of another module it imported
    (``tess._name``): what one module shares with another is public."""
    paths = sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
    modules = {p.stem for p in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("delone"):
                continue
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                      if a.name.startswith("_")]
            aliases.update(a.asname or a.name for a in node.names if a.name in modules)
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr.startswith("_")]
    assert not found


#: Pipeline definitions no command reaches, kept as further roots of
#: ``test_pipeline_modules_hold_only_reachable_definitions``: (module, name,
#: reason), a method named "Class.method".
REACHABILITY_ROOTS = (
    ("circumsphere", "circumcenter",
     "perfbench/tracing.py wraps it (circumsphere.circumcenter_s)"),
    ("netsynth", "build_product_structure",
     "perfbench's synth_5rF workload runs it"),
    ("cli", "_Path.convert", "click calls it on every path option's value"),
)


def _pipeline_graph():
    """(modules, defs, edges, attrs) of the pipeline modules, every module of
    the package but ``paper``.  ``modules`` maps each module's name to its
    syntax tree; ``defs`` maps (module, name) of each top-level function and
    class, and (module, "Class.method") of each non-dunder method, to its
    line.  ``edges`` maps each of them, and (module, None) for a module's
    other top-level statements, to the definitions they name, through
    same-module names, ``from .m import name`` and module aliases
    (``tess.name``); ``attrs`` maps each to the attribute names its code
    reads.  A class's code is its body without its non-dunder methods,
    which are nodes of their own."""
    paths = sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
    modules = {p.stem: ast.parse(p.read_text()) for p in paths if p.stem != "paper"}
    nodes = {}  # key -> (syntax nodes of its code, nodes left out of it)
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                nodes[(mod, node.name)] = ([node], methods)
                for m in methods:
                    nodes[(mod, f"{node.name}.{m.name}")] = ([m], [])
            elif isinstance(node, ast.FunctionDef):
                nodes[(mod, node.name)] = ([node], [])
    defs = {key: code[0].lineno for key, (code, _) in nodes.items()}
    edges, attrs = {}, {}
    for mod, tree in modules.items():
        names, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        names[a.asname or a.name] = (node.module, a.name)

        def walk(code, skip):
            todo = list(code)
            while todo:
                node = todo.pop()
                yield node
                todo.extend(c for c in ast.iter_child_nodes(node) if c not in skip)

        def scan(key, code, skip=()):
            refs, read = set(), set()
            for sub in walk(code, skip):
                if isinstance(sub, ast.Name):
                    refs.add(names.get(sub.id, (mod, sub.id)))
                elif isinstance(sub, ast.Attribute):
                    if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                        refs.add((aliases[sub.value.id], sub.attr))
                    if isinstance(sub.ctx, ast.Load):
                        read.add(sub.attr)
            edges[key] = edges.get(key, set()) | (refs & defs.keys())
            attrs[key] = attrs.get(key, set()) | read

        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scan((mod, None), [node])
        edges.setdefault((mod, None), set())
        attrs.setdefault((mod, None), set())
        for key, (code, skip) in nodes.items():
            if key[0] == mod:
                scan(key, code, skip)
    return modules, defs, edges, attrs


def _reach(edges, attrs, roots):
    """The definitions reached from ``roots``: by name along ``edges``, and a
    method when its class is reached and reached code reads its name as an
    attribute."""
    seen, read, todo = set(), set(), list(roots)
    methods = {key: ((key[0], key[1].split(".")[0]), key[1].split(".")[1])
               for key in edges if key[1] is not None and "." in key[1]}
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
            read |= attrs.get(key, set())
        if not todo:
            todo = [key for key, (cls, name) in methods.items()
                    if key not in seen and cls in seen and name in read]
    return seen


def test_pipeline_modules_hold_only_reachable_definitions():
    """Every top-level function and class of the pipeline modules is reached,
    by name, from ``cli.main``, a ``cmd_*`` command, ``delone.__all__`` or a
    module's own top-level statements, or from an entry of
    REACHABILITY_ROOTS; every non-dunder method is reached when reached code
    reads its name as an attribute, or from an entry; every entry exists and
    is needed; and no pipeline module imports ``delone.paper``, where the
    paper's other statements live."""
    modules, defs, edges, attrs = _pipeline_graph()
    roots = {("cli", name) for (mod, name) in defs
             if mod == "cli" and (name == "main" or name.startswith("cmd_"))}
    roots |= {key for key in edges if key[1] is None}
    init_names = {a.asname or a.name: node.module for node in modules["__init__"].body
                  if isinstance(node, ast.ImportFrom) for a in node.names}
    roots |= {(init_names[name], name) for name in delone.__all__ if name in init_names}
    allowed = {(mod, name) for mod, name, _ in REACHABILITY_ROOTS}
    stale = [f"{mod}.{name}: " + ("no such definition" if (mod, name) not in defs
                                   else "reachable without it")
             for mod, name in sorted(allowed)
             if (mod, name) not in defs
             or (mod, name) in _reach(edges, attrs, roots | (allowed - {(mod, name)}))]
    assert not stale
    reached = _reach(edges, attrs, roots | allowed)
    unreached = [f"{mod}.py:{line} {name}" for (mod, name), line in sorted(defs.items())
                 if (mod, name) not in reached]
    assert not unreached
    imports_paper = [f"{mod}.py:{node.lineno}" for mod, tree in modules.items()
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     and any("paper" in (getattr(node, "module", None) or "").split(".")
                             + a.name.split(".") for a in node.names)]
    assert not imports_paper


def test_package_writes_only_through_write_text():
    """No module of the package opens a file for writing with ``open``, and
    ``os.open`` is called only by ``jsonio.write_text``: it is the one writer
    of artifacts."""
    found, os_open = [], []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (isinstance(fn, ast.Attribute) and fn.attr == "open"
                    and isinstance(fn.value, ast.Name) and fn.value.id == "os"):
                os_open.append(path.name)
                continue
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name != "open":
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or any(c in str(m.value) for c in "wax+")
                   for m in modes):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
    assert os_open == ["jsonio.py"] and "os.open(" in inspect.getsource(jsonio.write_text)


def _spatial_constructions():
    """({class name: [module.scope, ...]}, importers): where each module of
    the package, ``paper`` included, calls ``cKDTree`` or ``Delaunay``, at
    any level, and the modules that import ``scipy.spatial``."""
    built, importers = {"cKDTree": [], "Delaunay": []}, set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                fn = child.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in built:
                    built[name].append(f"{module}.{scope}")
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                mod = getattr(child, "module", None) or ""  # None for "from . import x"
                names = [a.name for a in child.names] if isinstance(child, ast.Import) \
                    else [mod] + [f"{mod}.{a.name}" for a in child.names]
                if any(n == "scipy.spatial" or n.startswith("scipy.spatial.") for n in names):
                    importers.add(module)
            visit(child, module, inner)

    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return built, importers


def test_package_builds_kd_trees_only_in_net_tree():
    """``cKDTree`` is constructed in one place, ``tessellation.Net.tree``,
    and only ``tessellation`` imports ``scipy.spatial``: each nearest-site
    query asks the net's own tree."""
    built, importers = _spatial_constructions()
    assert built["cKDTree"] == ["tessellation.Net.tree"]
    assert importers == {"tessellation"}


def test_package_runs_qhull_only_in_net_qhull():
    """``Delaunay`` is constructed in one place, ``tessellation.Net.qhull``:
    the Delaunay build and the certifier read the net's one triangulation."""
    assert _spatial_constructions()[0]["Delaunay"] == ["tessellation.Net.qhull"]
