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


def _grid_net():
    """A jittered 3 x 3 grid, whose complex has 8 top triangles."""
    axis = np.arange(3.0)
    pts = np.array([[x, y] for x in axis for y in axis])
    pts += np.random.default_rng(0).uniform(-0.03, 0.03, pts.shape)
    return tess.Net(dim=2, points=pts, d1=0.5, d2=0.8,
                    region=nsy.Region.box([-1.0, -1.0], [3.0, 3.0]))


class TestComplexIo:
    def test_round_trip(self):
        net = _triangle_net()
        cx = tess.build_delaunay(net, None)
        d = jsonio.complex_to_dict(cx, net.dim)
        again = jsonio.complex_from_dict(d)
        assert {s.vertices for s in again.top(2)} == \
            {s.vertices for s in cx.top(2)}
        assert again.regular == cx.regular

    def test_round_trip_keeps_sphere_bits(self, small_complex, monkeypatch):
        text = jsonio.dumps(jsonio.complex_to_dict(small_complex, 2))

        def no_record_loop(*args):
            raise AssertionError("a valid complex was checked one record at a time")

        # a valid file takes the column checks alone
        monkeypatch.setattr(jsonio, "_top_row", no_record_loop)
        again = jsonio.complex_from_dict(json.loads(text))
        want, got = small_complex.top(2), again.top(2)
        assert [s.vertices for s in got] == [s.vertices for s in want]
        for a, b in zip(got, want):
            assert a.sphere.center.tobytes() == np.asarray(b.sphere.center).tobytes()
            assert np.float64(a.sphere.radius).tobytes() == \
                np.float64(b.sphere.radius).tobytes()

    def test_top_simplices_only_sorted(self):
        net = _grid_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        assert d["v"] == 2
        verts = [s["verts"] for s in d["simplices"]]
        assert all(len(v) == 3 for v in verts) and verts == sorted(verts)
        shuffled = {**d, "simplices": d["simplices"][::-1]}
        again = jsonio.complex_to_dict(jsonio.complex_from_dict(shuffled, net), 2)
        assert jsonio.dumps(again) == jsonio.dumps(d)

    def test_duplicate_simplex_rejected(self):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        d["simplices"].append(dict(d["simplices"][-1]))
        with pytest.raises(ValidationError):
            jsonio.complex_from_dict(d)

    @pytest.mark.parametrize("change,message", [
        (lambda ss: ss + [{**ss[0], "verts": [0, 0, 1]}],
         "complex.simplices[8].verts: verts must be 3 strictly increasing"),
        (lambda ss: ss[:1] + [dict(ss[3])] + ss[2:], "complex.simplices[3].verts: duplicate"),
        (lambda ss: ss[:7] + [{**ss[7], "verts": [0, 1, 9]}],
         "complex.simplices[7].verts: vertex 9 is out of range for a 9-point net"),
        (lambda ss: ss[:7] + [{**ss[7], "verts": [-1, 0, 1]}],
         "complex.simplices[7].verts: verts must be 3 strictly increasing nonnegative"),
        (lambda ss: ss[:6] + [{**ss[6], "verts": [False, 1, 2]}] + ss[7:],
         "complex.simplices[6].verts: verts must be 3 strictly increasing nonnegative"),
        (lambda ss: ss[:1] + [{**ss[1], "verts": [1, 2]}] + ss[2:],
         "complex.simplices[1].verts: verts must be 3 strictly increasing"),
        (lambda ss: ss[:2] + [{**ss[2], "verts": [1, 4, 2]}] + ss[3:],
         "complex.simplices[2].verts: verts must be 3 strictly increasing"),
        (lambda ss: ss[:7] + [5], "complex.simplices[7]: expected an object"),
        (lambda ss: ss[:7] + [{**ss[7], "radius": "r"}], "complex.simplices[7].radius"),
        (lambda ss: ss[:2] + [{**ss[2], "center": [0.5]}] + ss[3:],
         "complex.simplices[2]: center must be a finite 2-vector"),
        (lambda ss: ss[:5] + [{**ss[5], "radius": float("nan")}] + ss[6:],
         "complex.simplices[5]: center must be a finite 2-vector and radius a finite"),
        (lambda ss: ss[:4] + [{**ss[4], "center": [True, False]}] + ss[5:],
         "complex.simplices[4]: center must be a finite 2-vector"),
        (lambda ss: ss[:6] + [{**ss[6], "radius": True}] + ss[7:],
         "complex.simplices[6].radius"),
        (lambda ss: ss[:3] + [{**ss[3], "center": [10 ** 400, 0]}] + ss[4:],
         "complex.simplices[3]: center must be a finite 2-vector"),
        (lambda ss: ss[:3] + [{**ss[3], "radius": 1e308}] + ss[4:],
         "complex.simplices[3]: center must be a finite 2-vector and radius a finite "
         "number, at most 1e+150 in magnitude"),
    ])
    def test_rejections_name_their_field(self, change, message):
        net = _grid_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        assert len(d["simplices"]) == 8
        d["simplices"] = change(d["simplices"])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            jsonio.complex_from_dict(d, net)

    @pytest.mark.parametrize("change,path", [
        (lambda c: {**c, "v": 1}, "complex.v"),  # the schema with every face
        (lambda c: {**c, "regular": "no"}, "complex.regular"),
        (lambda c: {k: v for k, v in c.items() if k != "regular"}, "complex.regular"),
        (lambda c: {**c, "dim": 0}, "complex.dim"),
    ], ids=["v1", "regular-not-bool", "regular-missing", "dim-zero"])
    def test_header_rejections(self, change, path):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)}:"):
            jsonio.complex_from_dict(change(d))

    def test_dim_mismatch_rejected(self):
        net = _triangle_net()
        d = jsonio.complex_to_dict(tess.build_delaunay(net, None), net.dim)
        with pytest.raises(ValidationError, match="^complex.dim: dim 3 differs"):
            jsonio.complex_from_dict({**d, "dim": 3}, net)


def _certificate(bundle, override=None, depth=1) -> dict:
    """A certificate of the triangle net, as loaded back from its JSON."""
    s = 0.15 * bundle.rF
    net = tess.Net(dim=2, points=[[0.0, 0.0], [s, 0.0], [0.5 * s, 0.8 * s]],
                   d1=bundle.d1, d2=bundle.d2)
    fam = nsy.make_family(bundle, depth=depth)
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

    def test_size_does_not_grow_with_depth(self, bundle2):
        # the family is recorded by depth and seed, not by its 2^depth strings
        shallow, deep = (_certificate(bundle2, depth=d) for d in (2, 16))
        assert deep["family"] == {"depth": 16, "seed": 0}
        assert len(jsonio.dumps(deep)) <= len(jsonio.dumps(shallow)) + 8

    @pytest.mark.parametrize("change,path", [
        (lambda c: {**c, "v": 3}, "certificate.v"),  # per_simplex as a list of records
        (lambda c: {k: v for k, v in c.items() if k != "family"}, "certificate.family"),
        (lambda c: {**c, "pass": 1}, "certificate.pass"),
        (lambda c: {k: v for k, v in c.items() if k != "worst"}, "certificate.worst"),
        (lambda c: {**c, "worst": {**c["worst"], "simplex": [0.5]}},
         "certificate.worst.simplex"),
        (lambda c: {**c, "per_simplex": []}, "certificate.per_simplex"),
        (lambda c: {**c, "per_simplex": {"simplex": ["x"]}}, "certificate.per_simplex.simplex"),
        (lambda c: {**c, "per_simplex": {"robustness_margin": [1.0]}},
         "certificate.per_simplex.simplex"),
        (lambda c: {**c, "per_simplex": {"simplex": [[0, True, 2]]}},
         "certificate.per_simplex.simplex"),
        (lambda c: {**c, "per_simplex": {"simplex": [[0, 1, 2]], "base_clearance_margin": [None]}},
         "certificate.per_simplex.base_clearance_margin[0]"),
        (lambda c: {**c, "per_simplex": {"simplex": [[0, 1, 2]], "robustness_margin": [False]}},
         "certificate.per_simplex.robustness_margin[0]"),
        (lambda c: {**c, "per_simplex": {"simplex": [[0, 1, 2]], "robustness_margin": [1.0, 2.0]}},
         "certificate.per_simplex.robustness_margin"),
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
