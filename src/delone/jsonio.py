"""Deterministic JSON serialization of nets, complexes, families, bundles,
and certificates.

One object per file, schema version field "v": 1, numbers via the shortest
round-trip float representation, keys sorted: identical inputs produce
byte-identical files.  Loading re-validates every type invariant and reports
violations with field paths.
"""

from __future__ import annotations

import json

import numpy as np

from . import constants as consts
from . import netsynth as nsy
from . import tessellation as tess
from .circumsphere import CircumSphere
from .errors import ValidationError


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write(path, obj: dict) -> None:
    with open(path, "w") as f:
        f.write(dumps(obj))


def read(path) -> dict:
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValidationError("top-level JSON value must be an object")
    return data


def _require(d: dict, key: str, types, path: str):
    if key not in d:
        raise ValidationError("missing field", path=f"{path}.{key}")
    v = d[key]
    if not isinstance(v, types):
        raise ValidationError(f"expected {types}, got {type(v).__name__}",
                              path=f"{path}.{key}")
    return v


def _check_version(d: dict, path: str):
    if d.get("v") != 1:
        raise ValidationError(f"unsupported schema version {d.get('v')!r}",
                              path=f"{path}.v")


# -- net --------------------------------------------------------------------


def net_to_dict(net: tess.Net) -> dict:
    d = {
        "v": 1,
        "dim": net.dim,
        "d1": net.d1,
        "d2": net.d2,
        "points": [[float(x) for x in p] for p in net.points],
    }
    if net.region is not None and hasattr(net.region, "to_dict"):
        d["region"] = net.region.to_dict()
    return d


def region_from_dict(d: dict, path: str = "region") -> nsy.Region:
    kind = _require(d, "kind", str, path)
    bounds = _require(d, "bounds", list, path)
    if kind == "box":
        return nsy.Region.box(bounds[0], bounds[1])
    if kind == "disk":
        return nsy.Region.disk(bounds[0], float(bounds[1]))
    raise ValidationError(f"unknown region kind {kind!r}", path=f"{path}.kind")


def net_from_dict(d: dict) -> tess.Net:
    _check_version(d, "net")
    dim = _require(d, "dim", int, "net")
    d1 = float(_require(d, "d1", (int, float), "net"))
    d2 = float(_require(d, "d2", (int, float), "net"))
    raw = _require(d, "points", list, "net")
    try:
        pts = np.asarray(raw, dtype=float)
    except (ValueError, TypeError):
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != dim:
        raise ValidationError(f"points must be {dim}-vectors", path="net.points")
    if not np.all(np.isfinite(pts)):
        i = int(np.nonzero(~np.all(np.isfinite(pts), axis=1))[0][0])
        raise ValidationError(f"point {i} is not finite", path="net.points")
    if not (0 < d1 < d2):
        raise ValidationError("require 0 < d1 < d2", path="net.d1")
    region = region_from_dict(d["region"]) if "region" in d else None
    net = tess.Net(dim=dim, points=pts, d1=d1, d2=d2, region=region)
    if len(pts) >= 2:
        sep = net.check_separation()
        if sep < d1:
            from scipy.spatial import cKDTree
            dd, jj = cKDTree(pts).query(pts, k=2)
            i = int(np.argmin(dd[:, 1]))
            raise ValidationError(
                f"points {i} and {int(jj[i, 1])} are {sep:.6g} < d1 apart",
                path="net.points")
    return net


# -- complex ----------------------------------------------------------------


def complex_to_dict(cx: tess.DelaunayComplex, dim: int) -> dict:
    simplices = []
    for s in cx.all_simplices():
        simplices.append({
            "verts": [int(v) for v in s.vertices],
            "center": [float(x) for x in s.sphere.center],
            "radius": float(s.sphere.radius),
        })
    return {"v": 1, "dim": dim, "simplices": simplices, "regular": cx.regular}


def complex_from_dict(d: dict, net: tess.Net | None = None) -> tess.DelaunayComplex:
    """Load a complex; with ``net``, also require the net's dimension and
    vertex indices that name its points."""
    _check_version(d, "complex")
    dim = _require(d, "dim", int, "complex")
    if net is not None and dim != net.dim:
        raise ValidationError(f"dim {dim} differs from the net's dim {net.dim}",
                              path="complex.dim")
    raw = _require(d, "simplices", list, "complex")
    by_dim: dict = {}
    seen = set()
    for i, sd in enumerate(raw):
        path = f"complex.simplices[{i}]"
        verts = tuple(_require(sd, "verts", list, path))
        if not all(isinstance(v, int) and v >= 0 for v in verts):
            raise ValidationError("verts must be nonnegative integers",
                                  path=f"{path}.verts")
        if len(set(verts)) != len(verts):
            raise ValidationError("repeated vertex", path=f"{path}.verts")
        if net is not None and verts and max(verts) >= len(net):
            raise ValidationError(
                f"vertex {max(verts)} is out of range for a {len(net)}-point net",
                path=f"{path}.verts")
        if verts in seen:
            raise ValidationError("duplicate simplex", path=f"{path}.verts")
        seen.add(verts)
        center = np.asarray(_require(sd, "center", list, path), dtype=float)
        radius = float(_require(sd, "radius", (int, float), path))
        s = tess.Simplex(vertices=verts,
                         sphere=CircumSphere(center=center, radius=radius))
        by_dim.setdefault(len(verts) - 1, []).append(s)
    for k in by_dim:
        by_dim[k].sort(key=lambda s: s.vertices)
    # face closure
    top = max(by_dim) if by_dim else 0
    for k in range(top, 0, -1):
        have = {s.vertices for s in by_dim.get(k - 1, [])}
        for s in by_dim.get(k, []):
            for j in range(len(s.vertices)):
                face = s.vertices[:j] + s.vertices[j + 1:]
                if face not in have:
                    raise ValidationError(
                        f"face {face} of {s.vertices} missing",
                        path="complex.simplices")
    if dim not in by_dim and raw:
        raise ValidationError("no top-dimensional simplices", path="complex.simplices")
    regular = bool(d.get("regular", True))
    return tess.DelaunayComplex(simplices_by_dim=by_dim, regular=regular)


# -- family -----------------------------------------------------------------


def family_to_dict(family: nsy.ParamFamily, net_points=None) -> dict:
    return family.to_dict(net_points)


def family_from_dict(d: dict) -> nsy.ParamFamily:
    _check_version(d, "family")
    depth = _require(d, "depth", int, "family")
    dim = _require(d, "dim", int, "family")
    eps = float(_require(d, "eps", (int, float), "family"))
    scale = float(_require(d, "scale", (int, float), "family"))
    seed = _require(d, "seed", int, "family")
    overrides = tuple(
        (str(p), int(i), tuple(float(x) for x in v))
        for p, i, v in d.get("overrides", []))
    fam = nsy.ParamFamily(depth=depth, dim=dim, eps=eps, scale=scale,
                          seed=seed, overrides=overrides)
    if "params" in d and list(fam.params) != list(d["params"]):
        raise ValidationError("params do not match depth", path="family.params")
    return fam


# -- bundle -----------------------------------------------------------------


def bundle_to_dict(b: consts.ConstantBundle) -> dict:
    return b.to_dict()


def bundle_from_dict(d: dict) -> consts.ConstantBundle:
    _check_version(d, "bundle")
    n = _require(d, "n", int, "bundle")
    eps = _require(d, "eps", list, "bundle")
    if len(eps) != 5:
        raise ValidationError("eps must be [e0, e1, e2, e3, e4]", path="bundle.eps")
    dl = _require(d, "d", list, "bundle")
    if len(dl) != 6:
        raise ValidationError("d must have six entries", path="bundle.d")
    try:
        return consts.ConstantBundle(
            n=n,
            mode=_require(d, "mode", str, "bundle"),
            Cn=_require(d, "Cn", int, "bundle"),
            eps0=float(eps[0]), eps1=float(eps[1]), eps2=float(eps[2]),
            eps3=float(eps[3]), eps4=float(eps[4]),
            rF=float(_require(d, "rF", (int, float), "bundle")),
            r_star=float(_require(d, "r_star", (int, float), "bundle")),
            d1=float(dl[0]), d1p=float(dl[1]), d1pp=float(dl[2]),
            d2pp=float(dl[3]), d2p=float(dl[4]), d2=float(dl[5]),
            rho_hat=tuple(tuple(float(x) for x in pair)
                          for pair in _require(d, "rho_hat", list, "bundle")),
            gs_delta=float(_require(d, "gs_delta", (int, float), "bundle")),
            binding_eps0=_require(d, "binding_eps0", str, "bundle"),
            v2={str(k): float(v) for k, v in d.get("v2", {}).items()},
            provenance=dict(d.get("provenance", {})),
        )
    except ValidationError as exc:
        raise ValidationError(str(exc), path="bundle") from exc


# -- certificate ------------------------------------------------------------


def certificate_to_dict(cert: nsy.StabilityCertificate) -> dict:
    return cert.to_dict()


def _check_simplex(v, path: str) -> None:
    if not (isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool)
                                        for x in v)):
        raise ValidationError("simplex must be a list of integers", path=path)


def certificate_from_dict(d: dict) -> dict:
    """Check a certificate as ``render`` reads it and return it: its version,
    a bool ``pass``, a ``worst`` object, and ``per_simplex`` records that each
    name a ``simplex`` of integers and carry numeric ``*_margin`` values."""
    _check_version(d, "certificate")
    _require(d, "pass", bool, "certificate")
    worst = _require(d, "worst", dict, "certificate")
    if worst.get("simplex") is not None:
        _check_simplex(worst["simplex"], "certificate.worst.simplex")
    for i, rec in enumerate(_require(d, "per_simplex", list, "certificate")):
        path = f"certificate.per_simplex[{i}]"
        if not isinstance(rec, dict):
            raise ValidationError("expected an object", path=path)
        _check_simplex(_require(rec, "simplex", list, path), f"{path}.simplex")
        for key, v in rec.items():
            if key.endswith("_margin") and (isinstance(v, bool)
                                            or not isinstance(v, (int, float))):
                raise ValidationError("margin must be a number", path=f"{path}.{key}")
    return d
