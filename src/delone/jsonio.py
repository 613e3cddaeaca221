"""Deterministic JSON serialization of nets, complexes, bundles and
certificates, and the one writer of every artifact file.

One object per file, schema version field "v" (``SCHEMA_VERSIONS``, which
each artifact's writer and loader both read: 1; 2 for the complex, which
holds its top simplices only; 4 for the certificate, which stores
``per_simplex`` by columns), numbers via the shortest round-trip float
representation, keys sorted: identical inputs produce byte-identical files.
Each schema is written and read here alone.  Loading re-validates every type
invariant and reports violations with field paths.  Writers hand arrays out
by ``ndarray.tolist()``; every numeric list a loader reads, of numbers or of
rows of numbers, is checked and converted by ``_array`` alone, so a number is
defined once: a JSON int or float, never a bool or a string.

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


def _require(d: dict, key: str, types, path: str, length: int | None = None):
    """d[key], an instance of ``types`` (a bool only if ``types`` is bool),
    and with ``length``, a list of that many entries."""
    if not isinstance(d, dict):
        raise ValidationError(f"expected an object, got {type(d).__name__}", path=path)
    if key not in d:
        raise ValidationError("missing field", path=f"{path}.{key}")
    v = d[key]
    if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
        raise ValidationError(f"expected {types}, got {type(v).__name__}",
                              path=f"{path}.{key}")
    if length is not None and len(v) != length:
        raise ValidationError(f"expected a list of {length}, got {len(v)}",
                              path=f"{path}.{key}")
    return v


def _array(v: list, at: str, what: str, width: int | None = None, dtype=float,
           limit: float | None = None) -> np.ndarray:
    """The list ``v`` of JSON numbers, or of rows of ``width`` of them, as a
    float64 or int64 array of shape (len(v),) or (len(v), width).  A JSON
    number is an int or a float, or a subclass such as np.float64, which
    in-memory dicts hold; never a bool or a string.  An int64 array holds
    indices: ints alone, none negative.  With ``limit``, every float is at
    most ``limit`` in magnitude (NaN fails).  The types are tested as a set
    and the values by numpy on the whole array; on a failure,
    ValidationError(what, path=at) names the first failing entry i (a number
    or a row), "{i}" in both replaced by i."""
    a = _convert(v, width, dtype)
    if a is None:  # then some entry fails alone, and this raises
        _first([_convert([x], width, dtype) is None for x in v], at, what)
    if dtype is np.int64:
        bad = a < 0
    elif limit is not None:
        bad = ~(np.abs(a) <= limit)
    else:
        return a
    _first(bad if width is None else bad.any(axis=1), at, what)
    return a


def _convert(v: list, width: int | None, dtype):
    """``_array``'s array of ``v`` without its value tests, or None when an
    entry is not a JSON number (a list of ``width`` of them)."""
    if width is not None and not all(issubclass(t, list) for t in set(map(type, v))):
        return None
    kinds = int if dtype is np.int64 else (int, float)
    entries = v if width is None else itertools.chain.from_iterable(v)
    if not all(issubclass(t, kinds) and t is not bool for t in set(map(type, entries))):
        return None
    try:
        a = np.array(v, dtype=dtype)
    except (ValueError, OverflowError):  # ragged rows; an int beyond int64 or float
        return None
    if width is None or a.shape == (len(v), width):
        return a
    return None if v else a.reshape(0, width)  # [] converts to shape (0,)


def _first(bad, at: str, what: str) -> None:
    """Raise ValidationError(what, path=at) for the first entry i that
    ``bad`` flags, "{i}" in both replaced by i; nothing if none is."""
    hit = np.flatnonzero(bad)
    if len(hit):
        i = str(hit[0])
        raise ValidationError(what.replace("{i}", i), path=at.replace("{i}", i))


def _number(v, path: str) -> float:
    """A JSON number, as ``_array`` defines it, as a float."""
    return float(_array([v], path, "expected a number")[0])


def _require_number(d: dict, key: str, path: str) -> float:
    return _number(_require(d, key, (int, float), path), f"{path}.{key}")


def _check_version(d: dict, path: str):
    if type(d.get("v")) is not int or d["v"] != SCHEMA_VERSIONS[path]:  # no bool
        raise ValidationError(f"unsupported schema version {d.get('v')!r}",
                              path=f"{path}.v")


# -- net --------------------------------------------------------------------


def net_to_dict(net: tess.Net) -> dict:
    d = {
        "v": SCHEMA_VERSIONS["net"],
        "dim": net.dim,
        "d1": net.d1,
        "d2": net.d2,
        "points": net.points.tolist(),
    }
    if net.region is not None:
        d["region"] = region_to_dict(net.region)
    return d


def region_to_dict(region: nsy.Region) -> dict:
    """A box's bounds (lo, hi) or a disk's (center, radius), each as written
    by ``tolist()``."""
    return {"kind": region.kind, "bounds": [np.asarray(x).tolist() for x in region.bounds]}


def region_from_dict(d: dict, dim: int, path: str) -> nsy.Region:
    """A region of a ``dim``-dimensional net: a box's bounds are two rows of
    ``dim`` numbers, a disk's a row of ``dim`` numbers and a number."""
    kind = _require(d, "kind", str, path)
    if kind not in ("box", "disk"):
        raise ValidationError(f"unknown region kind {kind!r}", path=f"{path}.kind")
    bounds = _require(d, "bounds", list, path, length=2)
    rows = _array(bounds if kind == "box" else bounds[:1], f"{path}.bounds[{{i}}]",
                  f"expected a list of {dim} numbers", width=dim)
    if kind == "box":
        return nsy.Region.box(rows[0], rows[1])
    return nsy.Region.disk(rows[0], _number(bounds[1], f"{path}.bounds[1]"))


def net_from_dict(d: dict) -> tess.Net:
    _check_version(d, "net")
    dim = _require(d, "dim", int, "net")
    if not 1 <= dim <= linalg.MAX_DIM:
        raise ValidationError(f"dim must be in [1, {linalg.MAX_DIM}], got {dim}",
                              path="net.dim")
    d1 = _require_number(d, "d1", "net")
    d2 = _require_number(d, "d2", "net")
    raw = _require(d, "points", list, "net")
    if not raw:
        raise ValidationError("expected at least one point", path="net.points")
    pts = _array(raw, "net.points", f"point {{i}} is not a {dim}-vector of numbers at most "
                 f"{MAX_COORDINATE:g} in magnitude", width=dim, limit=MAX_COORDINATE)
    if not (0 < d1 < d2 <= MAX_COORDINATE):
        raise ValidationError(f"require 0 < d1 < d2 <= {MAX_COORDINATE:g}", path="net.d1")
    region = region_from_dict(d["region"], dim, "net.region") if "region" in d else None
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
    records = _require(d, "simplices", list, "complex")
    at = "complex.simplices[{i}]"
    try:  # the column of each field
        verts, center, radius = ([sd[key] for sd in records]
                                 for key in ("verts", "center", "radius"))
    except (TypeError, KeyError):  # a record is not an object, or lacks a field
        for i, sd in enumerate(records):
            for key, types in (("verts", list), ("center", list), ("radius", (int, float))):
                _require(sd, key, types, at.replace("{i}", str(i)))
    increasing = f"verts must be {dim + 1} strictly increasing nonnegative integers"
    verts = _array(verts, at + ".verts", increasing, width=dim + 1, dtype=np.int64)
    _first(np.any(verts[:, 1:] <= verts[:, :-1], axis=1), at + ".verts", increasing)
    out = np.flatnonzero(verts[:, -1] >= len(net)) if net is not None else ()
    if len(out):
        raise ValidationError(f"vertex {verts[out[0], -1]} is out of range for a "
                              f"{len(net)}-point net", path=f"complex.simplices[{out[0]}].verts")
    sphere = (f"center must be a finite {dim}-vector and radius a finite number, "
              f"at most {MAX_COORDINATE:g} in magnitude")
    centers = _array(center, at, sphere, width=dim, limit=MAX_COORDINATE)
    radii = _array(radius, at + ".radius", "expected a number")
    _first(~(np.abs(radii) <= MAX_COORDINATE), at, sphere)
    order = np.lexsort(verts.T[::-1])  # stable: an earlier copy comes first
    same = np.all(verts[order[1:]] == verts[order[:-1]], axis=1)
    if np.any(same):
        raise ValidationError("duplicate simplex",
                              path=f"complex.simplices[{int(order[1:][same].min())}].verts")
    return tess.DelaunayComplex.from_arrays(dim, verts[order], centers[order],
                                            radii[order], regular)


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
    eps, dl = (_array(_require(d, key, list, "bundle", length=n), f"bundle.{key}[{{i}}]",
                      "expected a number").tolist() for key, n in (("eps", 5), ("d", 6)))
    rho_hat = []  # pairs of any length: validate_bundle names a short one
    for k, pair in enumerate(_require(d, "rho_hat", list, "bundle")):
        if not isinstance(pair, list):
            raise ValidationError("expected a list of numbers", path=f"bundle.rho_hat[{k}]")
        rho_hat.append(tuple(_array(pair, f"bundle.rho_hat[{k}][{{i}}]",
                                    "expected a number").tolist()))
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
        rho_hat=tuple(rho_hat),
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


def certificate_from_dict(d: dict) -> dict:
    """Check a certificate as ``render`` reads it and return it: its version
    (4, the schema that stores ``per_simplex`` by columns), a bool ``pass``,
    a ``worst`` object whose ``simplex``, if not null, is a list of vertex
    indices, ``family`` and ``budget`` objects, and ``per_simplex`` columns:
    ``simplex``, rows of one width of vertex indices (nonnegative integers),
    and each ``*_margin`` column a list of as many numbers."""
    _check_version(d, "certificate")
    _require(d, "pass", bool, "certificate")
    _require(d, "family", dict, "certificate")
    _require(d, "budget", dict, "certificate")
    worst = _require(d, "worst", dict, "certificate")
    if worst.get("simplex") is not None:
        _array(_require(worst, "simplex", list, "certificate.worst"), "certificate.worst.simplex",
               "vertex {i} is not a nonnegative integer", dtype=np.int64)
    columns = _require(d, "per_simplex", dict, "certificate")
    path = "certificate.per_simplex"
    rows = _require(columns, "simplex", list, path)
    _array(rows, f"{path}.simplex", "row {i} is not a list of nonnegative integers as long "
           "as row 0", width=len(rows[0]) if rows and isinstance(rows[0], list) else 0,
           dtype=np.int64)
    for key in columns:
        if key.endswith("_margin"):
            _array(_require(columns, key, list, path, length=len(rows)),
                   f"{path}.{key}[{{i}}]", "expected a number")
    return d
