"""Deterministic JSON serialization of nets, complexes, bundles and
certificates, and the one writer of every artifact file.

One object per file, schema version field "v": 1, numbers via the shortest
round-trip float representation, keys sorted: identical inputs produce
byte-identical files.  Loading re-validates every type invariant and reports
violations with field paths.

``write_text`` is the one writer of artifact files (the CLI's JSON and its
SVG).  It overwrites a file in place: it writes the new bytes over the old
ones and then cuts the file to their length, instead of truncating it to
zero on open as ``open(path, "w")`` does.  On ext4, a truncate to zero
followed by writes is taken for a file replacement, and with the default
``auto_da_alloc`` mount option the data is flushed to disk when the file is
closed (kernel documentation, admin-guide/ext4).  On a 2-CPU Linux VM with
an ext4 root file system that flush cost 65-150 ms per overwritten artifact,
from the 811-byte bundle to the 1 MB complex, against under 0.4 ms for the
in-place write.  A temporary file renamed over the old one triggers the
same flush (65-137 ms there), so that idiom is not used either.  Path
resolution, symlinks, hard links, permission bits and the refusal of a
read-only file are those of ``open(path, "w")``.
"""

from __future__ import annotations

import json
import math
import os
import stat
from operator import attrgetter

import numpy as np

from . import constants as consts
from . import netsynth as nsy
from . import tessellation as tess
from .circumsphere import CircumSphere
from .errors import ValidationError


#: Largest coordinate, d1 or d2 magnitude a loaded net may have: squared
#: distances of larger values overflow float64.
MAX_COORDINATE = 1e150


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path``, creating the file with the mode
    ``open(path, "w")`` gives it, or overwriting it in place and cutting it
    to the new length, so that no truncate to zero precedes the writes."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null or a FIFO
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write(path, obj: dict) -> None:
    write_text(path, dumps(obj))


def read(path) -> dict:
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValidationError("top-level JSON value must be an object")
    return data


def _require(d: dict, key: str, types, path: str):
    if not isinstance(d, dict):
        raise ValidationError(f"expected an object, got {type(d).__name__}", path=path)
    if key not in d:
        raise ValidationError("missing field", path=f"{path}.{key}")
    v = d[key]
    if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
        raise ValidationError(f"expected {types}, got {type(v).__name__}",
                              path=f"{path}.{key}")
    return v


def _number(v, path: str) -> float:
    """A JSON number (not a bool) as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"expected a number, got {type(v).__name__}", path=path)
    try:
        return float(v)
    except OverflowError:
        raise ValidationError("number out of float range", path=path) from None


def _require_number(d: dict, key: str, path: str) -> float:
    return _number(_require(d, key, (int, float), path), f"{path}.{key}")


def _numbers(v, path: str, length: int | None = None) -> list:
    """A JSON list of numbers, of the given length if one is given."""
    if not isinstance(v, list) or (length is not None and len(v) != length):
        want = "a list" if length is None else f"a list of {length}"
        raise ValidationError(f"expected {want} numbers", path=path)
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _check_version(d: dict, path: str, version: int = 1):
    if d.get("v") != version:
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
    if kind not in ("box", "disk"):
        raise ValidationError(f"unknown region kind {kind!r}", path=f"{path}.kind")
    if len(bounds) != 2:
        raise ValidationError("expected a pair", path=f"{path}.bounds")
    a = _numbers(bounds[0], f"{path}.bounds[0]")
    if kind == "box":
        return nsy.Region.box(a, _numbers(bounds[1], f"{path}.bounds[1]"))
    return nsy.Region.disk(a, _number(bounds[1], f"{path}.bounds[1]"))


def net_from_dict(d: dict) -> tess.Net:
    _check_version(d, "net")
    dim = _require(d, "dim", int, "net")
    d1 = _require_number(d, "d1", "net")
    d2 = _require_number(d, "d2", "net")
    raw = _require(d, "points", list, "net")
    try:
        pts = np.asarray(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != dim:
        raise ValidationError(f"points must be {dim}-vectors", path="net.points")
    bad = ~np.all(np.abs(pts) <= MAX_COORDINATE, axis=1)  # NaN fails too
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ValidationError(f"point {i} is not finite or exceeds {MAX_COORDINATE:g} "
                              f"in magnitude", path="net.points")
    if not (0 < d1 < d2 <= MAX_COORDINATE):
        raise ValidationError(f"require 0 < d1 < d2 <= {MAX_COORDINATE:g}", path="net.d1")
    region = region_from_dict(d["region"], "net.region") if "region" in d else None
    if region is not None and region.dim != dim:
        raise ValidationError(f"a {region.dim}-dimensional region for a {dim}-dimensional "
                              f"net", path="net.region.bounds")
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
    """Load a complex: its simplices must be exactly the top simplices of
    dimension ``dim`` and their faces.  With ``net``, also require the net's
    dimension and vertex indices that name its points."""
    _check_version(d, "complex")
    dim = _require(d, "dim", int, "complex")
    if net is not None and dim != net.dim:
        raise ValidationError(f"dim {dim} differs from the net's dim {net.dim}",
                              path="complex.dim")
    raw = _require(d, "simplices", list, "complex")
    n_sites = None if net is None else len(net)
    seen = set()
    records = []
    for i, sd in enumerate(raw):
        verts, center, radius = _simplex_fields(sd, i)
        verts = tuple(verts)
        problem = None
        if not all(type(v) is int and v >= 0 for v in verts):  # no bools
            problem = "verts must be nonnegative integers"
        elif len(set(verts)) != len(verts):
            problem = "repeated vertex"
        elif n_sites is not None and verts and max(verts) >= n_sites:
            problem = f"vertex {max(verts)} is out of range for a {n_sites}-point net"
        elif verts in seen:
            problem = "duplicate simplex"
        if problem:
            raise ValidationError(problem, path=f"complex.simplices[{i}].verts")
        seen.add(verts)
        records.append((verts, center, radius))
    by_dim: dict = {}
    if records:
        centers, radii = _sphere_arrays(records, dim)
        for (verts, _, _), c, r in zip(records, centers, radii):
            by_dim.setdefault(len(verts) - 1, []).append(
                tess.Simplex(verts, CircumSphere(c, r)))
        for k in by_dim:
            by_dim[k].sort(key=attrgetter("vertices"))
        if dim not in by_dim:
            raise ValidationError("no top-dimensional simplices", path="complex.simplices")
        _check_face_closure(by_dim, dim)
    return tess.DelaunayComplex(simplices_by_dim=by_dim,
                                regular=bool(d.get("regular", True)))


def _sphere_arrays(records: list, dim: int) -> tuple:
    """The (m, dim) centers and the m radii of the (verts, center, radius)
    records, converted at once; the first record that is not a finite
    ``dim``-vector and a finite radius is named."""
    try:
        centers = np.array([c for _, c, _ in records], dtype=float)
        radii = np.array([r for _, _, r in records], dtype=float)
        ok = (centers.shape == (len(records), dim) and np.isfinite(centers).all()
              and np.isfinite(radii).all())
    except (ValueError, TypeError, OverflowError):
        ok = False
    if ok:
        return centers, radii.tolist()
    for i, (_, c, r) in enumerate(records):
        try:
            c = np.asarray(c, dtype=float)
            good = c.shape == (dim,) and np.isfinite(c).all() and math.isfinite(r)
        except (ValueError, TypeError, OverflowError):
            good = False
        if not good:
            raise ValidationError(f"center must be a finite {dim}-vector and radius "
                                  f"a finite number", path=f"complex.simplices[{i}]")
    raise AssertionError("unreachable: every record converted")


def _simplex_fields(sd, i: int) -> tuple:
    """(verts, center, radius) of simplex record i, type-checked; the field
    path is formatted only for an error."""
    if isinstance(sd, dict):
        verts, center, radius = sd.get("verts"), sd.get("center"), sd.get("radius")
        if (isinstance(verts, list) and isinstance(center, list)
                and isinstance(radius, (int, float))):
            return verts, center, radius
    path = f"complex.simplices[{i}]"
    return (_require(sd, "verts", list, path), _require(sd, "center", list, path),
            _require(sd, "radius", (int, float), path))


def _check_face_closure(by_dim: dict, dim: int) -> None:
    """Require the loaded simplices to be exactly the top simplices and
    their faces, as ``tess._face_closure`` builds them."""
    closure = tess._face_closure(by_dim[dim], dim)
    for k in sorted((set(by_dim) | set(closure)) - {dim}, reverse=True):
        want = [s.vertices for s in closure.get(k, [])]
        have = [s.vertices for s in by_dim.get(k, [])]
        if want == have:
            continue
        missing = sorted(set(want) - set(have))
        if missing:
            face = missing[0]
            top = next(s.vertices for s in by_dim[dim] if set(face) <= set(s.vertices))
            raise ValidationError(f"face {face} of {top} missing",
                                  path="complex.simplices")
        extra = sorted(set(have) - set(want))[0]
        raise ValidationError(f"simplex {extra} is not a face of a top simplex",
                              path="complex.simplices")


# -- bundle -----------------------------------------------------------------


def bundle_to_dict(b: consts.ConstantBundle) -> dict:
    return b.to_dict()


def bundle_from_dict(d: dict) -> consts.ConstantBundle:
    _check_version(d, "bundle")
    eps = _numbers(_require(d, "eps", list, "bundle"), "bundle.eps", 5)
    dl = _numbers(_require(d, "d", list, "bundle"), "bundle.d", 6)
    v2 = d.get("v2", {})
    provenance = d.get("provenance", {})
    for key, value in (("v2", v2), ("provenance", provenance)):
        if not isinstance(value, dict):
            raise ValidationError("expected an object", path=f"bundle.{key}")
    fields = dict(
        n=_require(d, "n", int, "bundle"),
        mode=_require(d, "mode", str, "bundle"),
        Cn=_require(d, "Cn", int, "bundle"),
        eps0=eps[0], eps1=eps[1], eps2=eps[2], eps3=eps[3], eps4=eps[4],
        rF=_require_number(d, "rF", "bundle"),
        r_star=_require_number(d, "r_star", "bundle"),
        d1=dl[0], d1p=dl[1], d1pp=dl[2], d2pp=dl[3], d2p=dl[4], d2=dl[5],
        rho_hat=tuple(tuple(_numbers(pair, f"bundle.rho_hat[{k}]"))
                      for k, pair in enumerate(_require(d, "rho_hat", list, "bundle"))),
        gs_delta=_require_number(d, "gs_delta", "bundle"),
        binding_eps0=_require(d, "binding_eps0", str, "bundle"),
        v2={str(k): _number(v, f"bundle.v2.{k}") for k, v in v2.items()},
        provenance=dict(provenance),
    )
    try:
        return consts.ConstantBundle(**fields)
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
    """Check a certificate as ``render`` reads it and return it: its version
    (2, the schema with the ``budget`` object), a bool ``pass``, a ``worst``
    object, a ``budget`` object, and ``per_simplex`` records that each name
    a ``simplex`` of integers and carry numeric ``*_margin`` values."""
    _check_version(d, "certificate", 2)
    _require(d, "pass", bool, "certificate")
    _require(d, "budget", dict, "certificate")
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
