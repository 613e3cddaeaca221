"""Deterministic JSON serialization of nets, complexes, bundles and
certificates, and the one writer of every artifact file.

One object per file, schema version field "v" (``SCHEMA_VERSIONS``, which
each artifact's writer and loader both read: 1; 2 for the complex, which
holds its top simplices only; 4 for the certificate, which stores
``per_simplex`` by columns), numbers via the shortest round-trip float
representation, keys sorted: identical inputs produce byte-identical files.
Each schema is written and read here alone.  Loading re-validates every type
invariant and reports violations with field paths.

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

import itertools
import json
import operator
import os
import stat

import numpy as np

from . import constants as consts
from . import linalg
from . import netsynth as nsy
from . import tessellation as tess
from .errors import ValidationError


#: Largest coordinate, d1 or d2 magnitude a loaded net may have: squared
#: distances of larger values overflow float64.
MAX_COORDINATE = 1e150

#: The schema version "v" of each artifact, written and required on load.
SCHEMA_VERSIONS = {"net": 1, "complex": 2, "bundle": 1, "certificate": 4}


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


def _check_version(d: dict, path: str):
    if d.get("v") != SCHEMA_VERSIONS[path]:
        raise ValidationError(f"unsupported schema version {d.get('v')!r}",
                              path=f"{path}.v")


# -- net --------------------------------------------------------------------


def net_to_dict(net: tess.Net) -> dict:
    d = {
        "v": SCHEMA_VERSIONS["net"],
        "dim": net.dim,
        "d1": net.d1,
        "d2": net.d2,
        "points": [[float(x) for x in p] for p in net.points],
    }
    if net.region is not None:
        d["region"] = region_to_dict(net.region)
    return d


def region_to_dict(region: nsy.Region) -> dict:
    a, b = region.bounds
    if region.kind == "box":
        return {"kind": "box", "bounds": [list(a), list(b)]}
    return {"kind": "disk", "bounds": [list(a), b]}


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
    if not 1 <= dim <= linalg.MAX_DIM:
        raise ValidationError(f"dim must be in [1, {linalg.MAX_DIM}], got {dim}",
                              path="net.dim")
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
    sep, i, j = net.closest_pair
    if sep < d1:
        raise ValidationError(f"points {i} and {j} are {sep:.6g} < d1 apart",
                              path="net.points")
    return net


# -- complex ----------------------------------------------------------------


def complex_to_dict(cx: tess.DelaunayComplex, dim: int) -> dict:
    """Schema 2: the top simplices only, in the complex's (lexicographic)
    order; every face is derived from them (``tess.facets``)."""
    verts, centers, radii = cx.top_arrays(dim)
    simplices = [{"verts": v, "center": c, "radius": r} for v, c, r in
                 zip(verts.tolist(), centers.tolist(), radii.tolist())]
    return {"v": SCHEMA_VERSIONS["complex"], "dim": dim, "simplices": simplices,
            "regular": cx.regular}


def complex_from_dict(d: dict, net: tess.Net | None = None) -> tess.DelaunayComplex:
    """Load a complex of schema 2: a bool ``regular`` and the top simplices,
    each dim+1 strictly increasing vertex indices (below the net's size when
    ``net`` is given) with a finite center and radius, no two equal, sorted
    into lexicographic order.  With ``net``, also require the net's
    dimension."""
    _check_version(d, "complex")
    dim = _require(d, "dim", int, "complex")
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}", path="complex.dim")
    if net is not None and dim != net.dim:
        raise ValidationError(f"dim {dim} differs from the net's dim {net.dim}",
                              path="complex.dim")
    regular = _require(d, "regular", bool, "complex")
    raw = _require(d, "simplices", list, "complex")
    if net is None:
        limit, within = 2 ** 63, "int64"
    else:
        limit, within = len(net), f"a {len(net)}-point net"
    columns = _top_columns(raw, dim, limit)
    if columns is None:  # some record may fail: the record loop names the first
        rows = [_top_row(sd, i, dim, limit, within) for i, sd in enumerate(raw)]
        columns = [v for v, _, _ in rows], [c for _, c, _ in rows], [r for _, _, r in rows]
    verts = np.asarray(columns[0], dtype=np.int64).reshape(-1, dim + 1)
    order = np.lexsort(verts.T[::-1])  # stable: an earlier copy comes first
    same = np.all(verts[order[1:]] == verts[order[:-1]], axis=1)
    if np.any(same):
        raise ValidationError("duplicate simplex",
                              path=f"complex.simplices[{int(order[1:][same].min())}].verts")
    centers = np.asarray(columns[1], dtype=float).reshape(-1, dim)
    radii = np.asarray(columns[2], dtype=float)
    return tess.DelaunayComplex.from_arrays(dim, verts[order], centers[order],
                                            radii[order], regular)


def _top_columns(raw: list, dim: int, limit: int):
    """The verts, center and radius columns of the top simplex records when
    each passes ``_top_row``'s checks, tested by one type pass over the
    records and numpy tests on the columns; None when a test fails, and
    ``_top_row`` then names the first failing record.  The types are exact
    (JSON's dict, list, int and float), so anything else takes the record
    loop."""
    try:
        verts = [sd["verts"] for sd in raw]
        center = [sd["center"] for sd in raw]
        radius = [sd["radius"] for sd in raw]
    except (TypeError, KeyError):  # a record that is not an object, or lacks a field
        return None
    if not (set(map(type, raw)) <= {dict} and set(map(type, verts)) <= {list}
            and set(map(type, center)) <= {list} and set(map(type, radius)) <= {int, float}
            and set(map(type, itertools.chain.from_iterable(verts))) <= {int}
            and set(map(type, itertools.chain.from_iterable(center))) <= {int, float}):
        return None
    try:
        v = np.array(verts, dtype=np.int64)
        c = np.array(center, dtype=float)
        r = np.array(radius, dtype=float)
    except (ValueError, OverflowError):  # ragged rows, or integers beyond int64 or float
        return None
    ok = (v.shape == (len(raw), dim + 1) and c.shape == (len(raw), dim)
          and np.all(v[:, 0] >= 0) and np.all(v[:, 1:] > v[:, :-1]) and np.all(v[:, -1] < limit)
          and np.all(np.abs(c) <= MAX_COORDINATE) and np.all(np.abs(r) <= MAX_COORDINATE))
    return (v, c, r) if ok else None


def _top_row(sd, i: int, dim: int, limit: int, within: str) -> tuple:
    """(verts, center, radius) of top simplex record i, checked: dim+1
    strictly increasing nonnegative integers below ``limit`` (the size of
    ``within``), a ``dim``-vector of JSON numbers and a number, all at most
    MAX_COORDINATE in magnitude, as a net's coordinates are."""
    path = f"complex.simplices[{i}]"
    verts = _require(sd, "verts", list, path)
    center = _require(sd, "center", list, path)
    radius = _require(sd, "radius", (int, float), path)
    if not (len(verts) == dim + 1 and set(map(type, verts)) == {int}  # no bools
            and verts[0] >= 0 and all(map(operator.lt, verts, verts[1:]))):
        raise ValidationError(f"verts must be {dim + 1} strictly increasing nonnegative "
                              f"integers", path=f"{path}.verts")
    if verts[-1] >= limit:
        raise ValidationError(f"vertex {verts[-1]} is out of range for {within}",
                              path=f"{path}.verts")
    if not (len(center) == dim and set(map(type, center)) <= {int, float}
            and all(abs(x) <= MAX_COORDINATE for x in (*center, radius))):  # NaN fails
        raise ValidationError(f"center must be a finite {dim}-vector and radius a finite "
                              f"number, at most {MAX_COORDINATE:g} in magnitude", path=path)
    return verts, center, radius


# -- bundle -----------------------------------------------------------------


def bundle_to_dict(b: consts.ConstantBundle) -> dict:
    return {
        "v": SCHEMA_VERSIONS["bundle"],
        "n": b.n,
        "mode": b.mode,
        "Cn": b.Cn,
        "eps": [b.eps0, b.eps1, b.eps2, b.eps3, b.eps4],
        "rF": b.rF,
        "r_star": b.r_star,
        "d": [b.d1, b.d1p, b.d1pp, b.d2pp, b.d2p, b.d2],
        "rho_hat": [list(p) for p in b.rho_hat],
        "gs_delta": b.gs_delta,
        "binding_eps0": b.binding_eps0,
        "v2": {k: v for k, v in sorted(b.v2.items())},
        "provenance": b.provenance,
    }


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
    return {"v": SCHEMA_VERSIONS["certificate"], "pass": cert.ok, "worst": cert.worst,
            "family": dict(cert.family),
            "per_simplex": {k: col.tolist() for k, col in cert.per_simplex.items()},
            "budget": dict(cert.budget)}


def _integers(v) -> bool:
    """Whether v is a list of JSON integers (not bools)."""
    return isinstance(v, list) and set(map(type, v)) <= {int}


def certificate_from_dict(d: dict) -> dict:
    """Check a certificate as ``render`` reads it and return it: its version
    (4, the schema that stores ``per_simplex`` by columns), a bool ``pass``,
    a ``worst`` object, ``family`` and ``budget`` objects, and ``per_simplex``
    columns: ``simplex``, a list of integer rows, and each ``*_margin``
    column a list of as many numbers."""
    _check_version(d, "certificate")
    _require(d, "pass", bool, "certificate")
    _require(d, "family", dict, "certificate")
    _require(d, "budget", dict, "certificate")
    worst = _require(d, "worst", dict, "certificate")
    if worst.get("simplex") is not None and not _integers(worst["simplex"]):
        raise ValidationError("simplex must be a list of integers",
                              path="certificate.worst.simplex")
    columns = _require(d, "per_simplex", dict, "certificate")
    path = "certificate.per_simplex"
    rows = _require(columns, "simplex", list, path)
    if not all(map(_integers, rows)):
        raise ValidationError("expected a list of integer rows", path=f"{path}.simplex")
    for key, col in columns.items():
        if key.endswith("_margin"):
            _numbers(col, f"{path}.{key}", len(rows))
    return d
