"""Command-line orchestration: constants, synthesize, triangulate, certify,
duality-check, render.

Data goes to files (or standard output), logging to standard error only.
Exit codes: 0 success, 1 validation failure, 2 certification failure,
3 I/O error.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import constants as consts
from . import jsonio
from . import netsynth as nsy
from . import tessellation as tess
from .errors import DeloneError, UnsupportedDimError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATION = 2
EXIT_IO = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load(path, parser):
    try:
        return parser(jsonio.read(path))
    except (OSError, ValueError) as exc:
        raise _IoFailure(f"{path}: {exc}") from exc


def _load_net_and_complex(net_path, cx_path):
    """The net, and the complex checked against it (dimension, vertex range)."""
    net = _load(net_path, jsonio.net_from_dict)
    return net, _load(cx_path, lambda d: jsonio.complex_from_dict(d, net))


def _parse_override(adv_str: str, family: nsy.ParamFamily, net: tess.Net):
    """(param, index, vector) of a ``param:index:dx,dy`` override."""
    usage = "--adversarial needs param:index:dx,dy"
    parts = adv_str.split(":")
    if len(parts) != 3:
        raise ValidationError(usage)
    param, index, vec = parts
    try:
        index = int(index)
        vector = [float(x) for x in vec.split(",")]
    except ValueError:
        raise ValidationError(f"{usage}, got {adv_str!r}") from None
    if len(param) != family.depth or not set(param) <= {"0", "1"}:
        raise ValidationError(f"--adversarial parameter {param!r} is not a "
                              f"depth-{family.depth} binary string")
    if not 0 <= index < len(net):
        raise ValidationError(f"--adversarial index {index} is out of range "
                              f"for a {len(net)}-point net")
    if len(vector) != net.dim or not all(abs(x) <= jsonio.MAX_COORDINATE for x in vector):
        raise ValidationError(f"--adversarial vector must be {net.dim} numbers of "
                              f"magnitude at most {jsonio.MAX_COORDINATE:g}")
    return param, index, vector


class _Path(click.Path):
    """``click.Path`` that rejects a NUL byte as a bad value: ``os.stat``
    raises ValueError for one, which click would let through."""

    def convert(self, value, param, ctx):
        if isinstance(value, str) and "\x00" in value:
            self.fail("path contains a NUL byte", param, ctx)
        return super().convert(value, param, ctx)


class _IoFailure(Exception):
    pass


@click.group()
def cli():
    """Delaunay/Voronoi net synthesis and stability certification."""


@cli.command("constants")
@click.option("--dim", type=click.IntRange(1, 8), default=2, show_default=True)
@click.option("--mode", type=click.Choice(["paper", "practical"]), default="practical",
              show_default=True)
@click.option("--eps", "eps_str", default=None,
              help="practical mode ladder e1,e2,e3,e4[,e0]")
@click.option("--metric", "metric_str", default=None,
              help="flat:<n> | sphere:<R> | torus:<p1>,<p2>")
@click.option("--out", type=_Path(), required=True)
def cmd_constants(dim, mode, eps_str, metric_str, out):
    """Build and validate a constant bundle."""
    from . import metrics as mt

    metric = mt.parse_metric(metric_str) if metric_str else None
    if mode == "paper":
        bundle = consts.paper_bundle(dim, metric=metric)
    elif eps_str is None:
        if dim != 2:
            raise ValidationError(f"the default practical ladder is for --dim 2, "
                                  f"got {dim}; pass --eps")
        bundle = consts.default_practical_bundle(dim, metric=metric)
    else:
        try:
            parts = [float(x) for x in eps_str.split(",")]
        except ValueError:
            parts = []
        if len(parts) not in (4, 5):
            raise ValidationError(f"--eps needs e1,e2,e3,e4[,e0], got {eps_str!r}")
        e0 = parts[4] if len(parts) == 5 else None
        bundle = consts.practical_bundle(dim, *parts[:4], eps0=e0, metric=metric)
    _write_out(out, jsonio.bundle_to_dict(bundle))
    _log(f"bundle written: rF={bundle.rF!r} eps0={bundle.eps0!r}")


@cli.command("synthesize")
@click.option("--bundle", "bundle_path", type=_Path(dir_okay=False), required=True)
@click.option("--box", "box_str", required=True, help="x0,y0,x1,y1 in leaf units")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=_Path(), required=True)
def cmd_synthesize(bundle_path, box_str, seed, out):
    """Synthesize a net covering the box region."""
    bundle = _load(bundle_path, jsonio.bundle_from_dict)
    try:
        vals = [float(x) for x in box_str.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 4:
        raise ValidationError(f"--box needs four numbers x0,y0,x1,y1, got {box_str!r}")
    region = nsy.Region.box(vals[:2], vals[2:])
    net, report = nsy.synthesize_net(region, bundle, seed=seed)
    _write_out(out, jsonio.net_to_dict(net))
    _log(f"net written: {len(net)} points, {report.steps} steps, "
         f"max excluded bound {report.max_excluded_bound:.3f}, "
         f"sampled max excluded fraction {report.max_excluded_fraction:.3f}")


@cli.command("triangulate")
@click.option("--net", "net_path", type=_Path(dir_okay=False), required=True)
@click.option("--out", type=_Path(), required=True)
def cmd_triangulate(net_path, out):
    """Build the Delaunay complex of a net."""
    net = _load(net_path, jsonio.net_from_dict)
    cx = tess.build_delaunay(net, None)
    _write_out(out, jsonio.complex_to_dict(cx, net.dim))
    _log(f"complex written: {len(cx.top(net.dim))} top simplices, "
         f"regular={cx.regular}")


@cli.command("certify")
@click.option("--net", "net_path", type=_Path(dir_okay=False), required=True)
@click.option("--complex", "cx_path", type=_Path(dir_okay=False), required=True)
@click.option("--bundle", "bundle_path", type=_Path(dir_okay=False), required=True)
@click.option("--family-depth", type=click.IntRange(1, 16), default=2, show_default=True)
@click.option("--family-seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--adversarial", "adv_str", default=None,
              help="param:index:dx,dy override for a failing run")
@click.option("--out", type=_Path(), required=True)
def cmd_certify(net_path, cx_path, bundle_path, family_depth, family_seed,
                adv_str, out):
    """Certify family stability of a complex; exit 2 on a failing certificate."""
    net, cx = _load_net_and_complex(net_path, cx_path)
    bundle = _load(bundle_path, jsonio.bundle_from_dict)
    family = nsy.make_family(bundle, depth=family_depth, seed=family_seed)
    if adv_str:
        family = family.with_override(*_parse_override(adv_str, family, net))
    cert = nsy.certify_family_stability(net, cx, family, bundle)
    _write_out(out, jsonio.certificate_to_dict(cert))
    if not cert.ok:
        _log(f"certificate FAILED: worst={cert.worst}")
        return EXIT_CERTIFICATION
    _log(f"certificate passed over {len(cert.params_checked)} parameters")


@cli.command("duality-check")
@click.option("--net", "net_path", type=_Path(dir_okay=False), required=True)
@click.option("--complex", "cx_path", type=_Path(dir_okay=False), required=True)
def cmd_duality(net_path, cx_path):
    """Verify Voronoi/Delaunay duality; exit 2 on violations."""
    net, cx = _load_net_and_complex(net_path, cx_path)
    report = tess.check_duality(net, cx)
    if report.fallback is not None:
        _log(f"duality: the tops certificate does not apply ({report.fallback}); "
             f"enumerating")
    if not report.ok:
        _log(f"duality violations ({report.method}): {report.violations[:5]}")
        return EXIT_CERTIFICATION
    _log(f"duality holds on {report.checked} checks ({report.method})")


@cli.command("render")
@click.option("--net", "net_path", type=_Path(dir_okay=False), required=True)
@click.option("--complex", "cx_path", type=_Path(dir_okay=False), default=None)
@click.option("--certificate", "cert_path", type=_Path(dir_okay=False), default=None)
@click.option("--out", type=_Path(), required=True)
def cmd_render(net_path, cx_path, cert_path, out):
    """Render a 2D net/complex to SVG."""
    if cx_path:
        net, cx = _load_net_and_complex(net_path, cx_path)
    else:
        net, cx = _load(net_path, jsonio.net_from_dict), None
    cert = _load(cert_path, jsonio.certificate_from_dict) if cert_path else None
    _write_out(out, render_svg(net, cx, cert))
    _log(f"svg written: {out}")


def render_svg(net: tess.Net, cx: tess.DelaunayComplex | None,
               certificate: dict | None = None) -> str:
    """Static SVG: sites, Delaunay edges, Voronoi edges (dual segments of
    adjacent top simplices), failed simplices highlighted."""
    if net.dim != 2:
        raise UnsupportedDimError("SVG rendering requires dim = 2")
    pts = net.points
    lo = pts.min(axis=0) - net.d2
    hi = pts.max(axis=0) + net.d2
    span = float(np.max(hi - lo))
    size = 800.0
    scale = size / span

    def screen(p):
        """Screen coordinates (x right, y down) of the points p (k, 2)."""
        return np.column_stack([(p[:, 0] - lo[0]) * scale,
                                size - (p[:, 1] - lo[1]) * scale])

    bad = set()
    if certificate:
        columns = certificate.get("per_simplex", {})
        failed = [np.asarray(col, dtype=float) < 0 for key, col in columns.items()
                  if key.endswith("_margin")]
        bad = {tuple(columns["simplex"][i]) for i in np.flatnonzero(np.any(failed, axis=0))}
        worst = certificate.get("worst", {})
        if isinstance(worst.get("simplex"), (list, tuple)) and \
                isinstance(worst.get("margin"), (int, float)) and worst["margin"] < 0:
            bad.add(tuple(worst["simplex"]))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    xy = screen(pts)
    if cx is not None:
        verts, centers, _ = cx.top_arrays(net.dim)
        edges, count, parents = tess.facets(verts)
        for (x1, y1), (x2, y2) in xy[edges].tolist():
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                f'y2="{y2:.2f}" stroke="#7799cc" stroke-width="1"/>')
        # Voronoi edges: segments between circumcenters of edge-adjacent tops
        for (x1, y1), (x2, y2) in screen(centers)[parents[count == 2]].tolist():
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                f'y2="{y2:.2f}" stroke="#cc9944" stroke-width="0.7"/>')
        for row in verts.tolist():
            if tuple(row) in bad:
                poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy[row].tolist())
                parts.append(f'<polygon points="{poly}" fill="rgba(220,40,40,0.45)" '
                             f'stroke="#cc2222" stroke-width="2"/>')
    for x, y in xy.tolist():
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#223355"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_out(path, obj: dict | str) -> None:
    """Write an artifact to ``path``, or to standard output for "-": a dict
    as JSON through ``jsonio.write``, a str (render's SVG) as it is."""
    try:
        if path == "-":
            sys.stdout.write(obj if isinstance(obj, str) else jsonio.dumps(obj))
        elif isinstance(obj, str):
            jsonio.write_text(path, obj)
        else:
            jsonio.write(path, obj)
    except OSError as exc:
        raise _IoFailure(f"{path}: {exc}") from exc


def main(argv=None) -> int:
    try:
        # click returns the command's value: EXIT_CERTIFICATION or None
        return cli.main(args=argv, standalone_mode=False) or EXIT_OK
    except click.exceptions.Abort:
        return EXIT_VALIDATION
    except click.UsageError as exc:
        if isinstance(exc, click.BadParameter) and exc.param is not None \
                and not isinstance(exc, click.MissingParameter):
            # one line naming the option, as a ValidationError names its field
            _log(f"validation error: {exc.param.name.replace('_', '.')}: {exc.message}")
            return EXIT_VALIDATION
        _log(exc.format_message())
        if exc.ctx is not None:
            _log(exc.ctx.get_usage())
        return EXIT_VALIDATION
    except click.ClickException as exc:
        _log(exc.format_message())
        return EXIT_VALIDATION
    except _IoFailure as exc:
        _log(f"I/O error: {exc}")
        return EXIT_IO
    except ValidationError as exc:
        _log(f"validation error: {exc}")
        return EXIT_VALIDATION
    except DeloneError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
