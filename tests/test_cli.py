import ast
import inspect
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from delone import cli, jsonio
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
                                     "0,0,nan,1", "0,0,1,inf"])
    def test_bad_box(self, tmp_path, bundle_file, capsys, box):
        capsys.readouterr()
        out = tmp_path / "net.json"
        rc = cli.main(["synthesize", "--bundle", bundle_file, "--box", box,
                       "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = _one_line_error(capsys)
        assert "--box" in err or "region.bounds" in err

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
        (lambda c: {**c, "per_simplex": [3]}, "certificate.per_simplex[0]"),
        (lambda c: {**c, "per_simplex": [{**c["per_simplex"][0], "simplex": [[0]]}]},
         "certificate.per_simplex[0].simplex"),
        (lambda c: {**c, "per_simplex": [{**c["per_simplex"][0],
                                          "robustness_margin": "low"}]},
         "certificate.per_simplex[0].robustness_margin"),
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
        ["constants", "--dim", "4", "--mode", "paper"],  # eps0 underflows float64
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
    def test_sphere_names_the_working_radius(self, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "b.json"
        rc = cli.main(["constants", "--metric", "sphere:1", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = _one_line_error(capsys)
        assert "bundle.rF" in err and "lambda_eps0" in err and "sphere:1.0" in err

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

    def test_explicit_eps(self, tmp_path):
        out = tmp_path / "b.json"
        rc = cli.main(["constants", "--dim", "2",
                       "--eps", "1e-8,1e-5,1e-5,2e-9", "--out", str(out)])
        assert rc == 0

    def test_invalid_eps_rejected(self, tmp_path):
        rc = cli.main(["constants", "--dim", "2", "--eps", "1e-8,1e-5",
                       "--out", str(tmp_path / "b.json")])
        assert rc == 1


class TestPipeline:
    def test_triangulate_and_checks(self, tiny_files, tmp_path):
        cx_out = tmp_path / "cx2.json"
        rc = cli.main(["triangulate", "--net", tiny_files["net"],
                       "--out", str(cx_out)])
        assert rc == 0
        assert cx_out.read_text() == open(tiny_files["cx"]).read()
        rc = cli.main(["duality-check", "--net", tiny_files["net"],
                       "--complex", tiny_files["cx"]])
        assert rc == 0

    def test_certify_passes(self, tiny_files, tmp_path):
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", "--net", tiny_files["net"],
                       "--complex", tiny_files["cx"],
                       "--bundle", tiny_files["bundle"],
                       "--family-depth", "1", "--out", str(out)])
        assert rc == 0
        cert = jsonio.read(out)
        assert cert["pass"] is True

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
        """A complex whose faces are complete but name vertex 99999, and one
        whose dim differs from the net's."""
        sphere = {"center": [0.0, 0.0], "radius": 1.0}
        verts = [[0], [1], [99999], [0, 1], [0, 99999], [1, 99999], [0, 1, 99999]]
        far = tmp_path / "far.json"
        jsonio.write(far, {"v": 1, "dim": 2, "regular": True,
                           "simplices": [{"verts": v, **sphere} for v in verts]})
        cx = jsonio.read(tiny_files["cx"])
        dim3 = tmp_path / "dim3.json"
        jsonio.write(dim3, {**cx, "dim": 3})
        return {"vertex": str(far), "dim": str(dim3)}

    @pytest.mark.parametrize("kind", ["vertex", "dim"])
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
        err = _one_line_error(capsys)
        assert ("99999" in err) if kind == "vertex" else ("complex.dim" in err)


class TestRender:
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
        cert = {"per_simplex": [{"simplex": [0, 1, 2],
                                 "robustness_margin": -0.01}],
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


def test_cli_does_not_import_scipy_optimize(tmp_path):
    """The constants and synthesize commands run without scipy.optimize."""
    code = """
import sys
from delone import cli, jsonio
bundle, net = sys.argv[1], sys.argv[2]
assert cli.main(["constants", "--out", bundle]) == 0
rF = jsonio.read(bundle)["rF"]
assert cli.main(["synthesize", "--bundle", bundle, "--box", f"0,0,{rF!r},{rF!r}",
                 "--seed", "1", "--out", net]) == 0
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
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
