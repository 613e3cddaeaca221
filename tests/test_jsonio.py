import json
import re

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


class TestFamilyIo:
    def test_round_trip_with_override(self):
        fam = nsy.ParamFamily(depth=2, dim=2, eps=1e-6, scale=1.0, seed=3)
        fam = fam.with_override("01", 2, [0.1, 0.2])
        again = jsonio.family_from_dict(fam.to_dict())
        assert again == fam

    def test_params_mismatch_rejected(self):
        fam = nsy.ParamFamily(depth=2, dim=2, eps=1e-6, scale=1.0)
        d = fam.to_dict()
        d["params"] = d["params"][:-1]
        with pytest.raises(ValidationError):
            jsonio.family_from_dict(d)


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
        (lambda c: {**c, "v": 2}, "certificate.v"),
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
