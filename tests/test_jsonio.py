import json
import os
import re
import stat

import numpy as np
import pytest

from delone import jsonio
from delone import netsynth as nsy
from delone import tessellation as tess
from delone.errors import ValidationError


def _triangle_net():
    return tess.Net(dim=2, points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    d1=0.5, d2=0.8,
                    region=nsy.Region.box([-1.0, -1.0], [2.0, 2.0]))


class TestNetIo:
    def test_round_trip(self, tmp_path):
        net = _triangle_net()
        path = tmp_path / "net.json"
        jsonio.write(path, jsonio.net_to_dict(net))
        again = jsonio.net_from_dict(jsonio.read(path))
        assert again.dim == net.dim
        assert np.array_equal(again.points, net.points)
        assert (again.d1, again.d2) == (net.d1, net.d2)
        assert again.region.kind == "box"

    def test_byte_identical(self):
        net = _triangle_net()
        t1 = jsonio.dumps(jsonio.net_to_dict(net))
        net2 = jsonio.net_from_dict(json.loads(t1))
        t2 = jsonio.dumps(jsonio.net_to_dict(net2))
        assert t1 == t2
        assert t1.endswith("\n")

    def test_close_pair_named_in_error(self):
        d = jsonio.net_to_dict(_triangle_net())
        d["points"].append([0.0, 0.01])  # 0.01 from point 0 < d1
        with pytest.raises(ValidationError) as err:
            jsonio.net_from_dict(d)
        msg = str(err.value)
        assert "0" in msg and "3" in msg and "d1" in msg

    def test_bad_shapes_rejected(self):
        d = jsonio.net_to_dict(_triangle_net())
        d["points"] = [[0.0, 0.0, 0.0]]
        with pytest.raises(ValidationError):
            jsonio.net_from_dict(d)

    @pytest.mark.parametrize("point", [[0.0], [0.0, "a"], [0.0, None]])
    def test_ragged_or_non_numeric_points_rejected(self, point):
        d = jsonio.net_to_dict(_triangle_net())
        d["points"][1] = point
        with pytest.raises(ValidationError, match="net.points"):
            jsonio.net_from_dict(d)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_point_rejected(self, value):
        d = jsonio.net_to_dict(_triangle_net())
        d["points"][2][1] = value
        with pytest.raises(ValidationError, match="net.points: point 2"):
            jsonio.net_from_dict(d)

    def test_inverted_region_rejected(self):
        d = jsonio.net_to_dict(_triangle_net())
        d["region"]["bounds"] = [[2.0, 2.0], [-1.0, -1.0]]
        with pytest.raises(ValidationError, match="region.bounds"):
            jsonio.net_from_dict(d)

    def test_bad_d_order_rejected(self):
        d = jsonio.net_to_dict(_triangle_net())
        d["d1"], d["d2"] = d["d2"], d["d1"]
        with pytest.raises(ValidationError):
            jsonio.net_from_dict(d)

    def test_wrong_version_rejected(self):
        d = jsonio.net_to_dict(_triangle_net())
        d["v"] = 2
        with pytest.raises(ValidationError):
            jsonio.net_from_dict(d)


class TestComplexIo:
    def test_round_trip(self):
        net = _triangle_net()
        cx = tess.build_delaunay(net, None)
        d = jsonio.complex_to_dict(cx, net.dim)
        again = jsonio.complex_from_dict(d)
        assert {s.vertices for s in again.top(2)} == \
            {s.vertices for s in cx.top(2)}
        assert again.regular == cx.regular

    def test_face_closure_violation(self):
        net = _triangle_net()
        cx = tess.build_delaunay(net, None)
        d = jsonio.complex_to_dict(cx, net.dim)
        # drop one edge: its parent triangle loses a face
        d["simplices"] = [s for s in d["simplices"] if s["verts"] != [0, 1]]
        with pytest.raises(ValidationError):
            jsonio.complex_from_dict(d)

    def test_duplicate_simplex_rejected(self):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        d["simplices"].append(dict(d["simplices"][-1]))
        with pytest.raises(ValidationError):
            jsonio.complex_from_dict(d)

    def test_missing_vertex_named(self):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        d["simplices"] = [s for s in d["simplices"] if s["verts"] != [1]]
        with pytest.raises(ValidationError,
                           match=re.escape("complex.simplices: face (1,) of (0, 1, 2) missing")):
            jsonio.complex_from_dict(d)

    @pytest.mark.parametrize("change,message", [
        (lambda ss: [s for s in ss if s["verts"] != [0, 2]],
         "complex.simplices: face (0, 2) of (0, 1, 2) missing"),
        (lambda ss: ss + [{**ss[0], "verts": [0, 0]}],
         "complex.simplices[7].verts: repeated vertex"),
        (lambda ss: ss + [dict(ss[3])], "complex.simplices[7].verts: duplicate simplex"),
        (lambda ss: ss + [{**ss[0], "verts": [3]}],
         "complex.simplices[7].verts: vertex 3 is out of range for a 3-point net"),
        (lambda ss: ss + [{**ss[0], "verts": [0, -1]}],
         "complex.simplices[7].verts: verts must be nonnegative integers"),
        (lambda ss: ss[:6] + [{**ss[6], "verts": [False, 1, 2]}],
         "complex.simplices[6].verts: verts must be nonnegative integers"),
        (lambda ss: [s for s in ss if len(s["verts"]) < 3],
         "complex.simplices: no top-dimensional simplices"),
        (lambda ss: ss + [{**ss[0], "verts": [2, 1]}],
         "complex.simplices: simplex (2, 1) is not a face of a top simplex"),
        (lambda ss: ss + [5], "complex.simplices[7]: expected an object"),
        (lambda ss: ss + [{**ss[0], "radius": "r"}], "complex.simplices[7].radius"),
        (lambda ss: ss[:2] + [{**ss[2], "center": [0.5]}] + ss[3:],
         "complex.simplices[2]: center must be a finite 2-vector"),
        (lambda ss: ss[:5] + [{**ss[5], "radius": float("nan")}] + ss[6:],
         "complex.simplices[5]: center must be a finite 2-vector and radius a finite"),
    ])
    def test_rejections_name_their_field(self, change, message):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        assert len(d["simplices"]) == 7
        d["simplices"] = change(d["simplices"])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            jsonio.complex_from_dict(d, net)

    def test_dim_mismatch_rejected(self):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        with pytest.raises(ValidationError, match="^complex.dim: dim 3 differs"):
            jsonio.complex_from_dict({**d, "dim": 3}, net)


def _certificate(bundle, override=None) -> dict:
    """A certificate of the triangle net, as loaded back from its JSON."""
    s = 0.15 * bundle.rF
    net = tess.Net(dim=2, points=[[0.0, 0.0], [s, 0.0], [0.5 * s, 0.8 * s]],
                   d1=bundle.d1, d2=bundle.d2)
    fam = nsy.make_family(bundle, depth=1)
    if override:
        fam = fam.with_override("1", 0, override)
    cert = nsy.certify_family_stability(net, tess.build_delaunay(net, None), fam, bundle)
    return json.loads(jsonio.dumps(jsonio.certificate_to_dict(cert)))


class TestCertificateIo:
    def test_passing_and_failing_round_trip(self, bundle2):
        for override in (None, [10.0 * bundle2.d1, 0.0]):
            cert = _certificate(bundle2, override)
            assert cert["pass"] is (override is None)
            assert jsonio.certificate_from_dict(cert) == cert

    @pytest.mark.parametrize("change,path", [
        (lambda c: {**c, "v": 1}, "certificate.v"),  # the schema before `budget`
        (lambda c: {**c, "pass": 1}, "certificate.pass"),
        (lambda c: {k: v for k, v in c.items() if k != "worst"}, "certificate.worst"),
        (lambda c: {**c, "worst": {**c["worst"], "simplex": [0.5]}},
         "certificate.worst.simplex"),
        (lambda c: {**c, "per_simplex": {}}, "certificate.per_simplex"),
        (lambda c: {**c, "per_simplex": ["x"]}, "certificate.per_simplex[0]"),
        (lambda c: {**c, "per_simplex": [{"robustness_margin": 1.0}]},
         "certificate.per_simplex[0].simplex"),
        (lambda c: {**c, "per_simplex": [{"simplex": [0, True, 2]}]},
         "certificate.per_simplex[0].simplex"),
        (lambda c: {**c, "per_simplex": [{"simplex": [0, 1, 2], "base_clearance_margin": None}]},
         "certificate.per_simplex[0].base_clearance_margin"),
        (lambda c: {**c, "per_simplex": [{"simplex": [0, 1, 2], "robustness_margin": False}]},
         "certificate.per_simplex[0].robustness_margin"),
    ])
    def test_malformed_rejected_with_path(self, bundle2, change, path):
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)}:"):
            jsonio.certificate_from_dict(change(_certificate(bundle2)))


class TestFileErrors:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "net.json"
        text = jsonio.dumps(jsonio.net_to_dict(_triangle_net()))
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError):
            jsonio.read(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValidationError):
            jsonio.read(path)

    def test_error_paths_reported(self):
        with pytest.raises(ValidationError) as err:
            jsonio.net_from_dict({"v": 1, "dim": 2, "d1": 0.1, "d2": 0.2})
        assert "points" in str(err.value)


class TestWriteText:
    """``write_text`` overwrites in place and behaves as ``open(path, "w")``
    does for links, modes and refusals."""

    def test_shorter_content_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "a.json"
        jsonio.write_text(path, "x" * 1000)
        jsonio.write_text(path, "short\n")
        assert path.read_bytes() == b"short\n"
        jsonio.write_text(path, "")
        assert path.read_bytes() == b""

    def test_bytes_are_the_utf8_text(self, tmp_path):
        path = tmp_path / "net.json"
        text = jsonio.dumps(jsonio.net_to_dict(_triangle_net()))
        jsonio.write(path, jsonio.net_to_dict(_triangle_net()))
        assert path.read_bytes() == text.encode("ascii")
        jsonio.write_text(path, "é\n")
        assert path.read_bytes() == "é\n".encode("utf-8")

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old content that is long\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        jsonio.write_text(link, "new\n")
        assert link.is_symlink()
        assert target.read_text() == "new\n"

    def test_hard_link_updated_through_both_names(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text("old content that is long\n")
        b = tmp_path / "b.json"
        os.link(a, b)
        jsonio.write_text(b, "new\n")
        assert a.read_text() == b.read_text() == "new\n"
        assert os.stat(a).st_ino == os.stat(b).st_ino

    def test_new_file_mode_matches_open(self, tmp_path):
        with open(tmp_path / "ref", "w") as f:
            f.write("x")
        jsonio.write_text(tmp_path / "new", "x")
        assert os.stat(tmp_path / "new").st_mode == os.stat(tmp_path / "ref").st_mode

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("old\n")
        os.chmod(path, 0o640)
        jsonio.write_text(path, "new content\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_read_only_file_refused_like_open(self, tmp_path):
        def outcome(writer, path):
            path.write_text("old\n")
            os.chmod(path, 0o444)
            try:
                writer(path)
            except OSError as exc:
                return type(exc), path.read_text()
            finally:
                os.chmod(path, 0o644)
            return None, path.read_text()

        def by_open(path):
            with open(path, "w") as f:
                f.write("new\n")

        want = outcome(by_open, tmp_path / "a")  # no refusal for root
        assert outcome(lambda p: jsonio.write_text(p, "new\n"), tmp_path / "b") == want

    def test_directory_and_missing_parent_raise(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            jsonio.write_text(tmp_path, "x")
        with pytest.raises(FileNotFoundError):
            jsonio.write_text(tmp_path / "absent" / "a.json", "x")

    def test_character_device(self):
        jsonio.write_text(os.devnull, "x\n")  # nothing to cut to length
