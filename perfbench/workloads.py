"""The three benchmark workloads, driven through delone's public API.

A workload has three parts:

* ``setup(seed)`` builds the constant bundle and the workload's inputs.  It
  is what ``setup_s`` measures, so it does no checking.
* ``ops(inputs)`` lists the timed operations of one round as
  ``(name, fn)`` pairs; ``fn(state)`` receives the results of the earlier
  operations of the round.  Every round runs the same operations.
* ``check(inputs, state)`` checks each operation's result against the
  computations in ``oracles`` and returns ``{op name: [problems]}``.

Every call into delone goes through a module attribute (``nsy.synthesize_net``,
``cli.main``, ...), so the traced run can wrap those attributes.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from delone import cli, jsonio
from delone import constants as consts
from delone import netsynth as nsy
from delone import tessellation as tess

import oracles


def _bundle() -> tuple:
    """The default constant bundle and the seconds it took to build."""
    t0 = time.perf_counter()
    bundle = consts.default_practical_bundle(2)
    return bundle, time.perf_counter() - t0


def _tops(cx, n: int = 2) -> set:
    return {s.vertices for s in cx.top(n)}


def _complex_problems(points, cx, d2) -> list:
    """Top set against Qhull, and every witness sphere empty."""
    top = cx.top(2)
    problems = oracles.compare_top_sets(_tops(cx), oracles.qhull_top_set(points, d2),
                                        "top simplices")
    verts = np.array([s.vertices for s in top], dtype=np.int64).reshape(-1, 3)
    centers = np.array([s.sphere.center for s in top]).reshape(-1, 2)
    radii = np.array([s.sphere.radius for s in top])
    return problems + oracles.empty_spheres(points, verts, centers, radii)


# ---------------------------------------------------------------------------


@dataclass
class Synth:
    """``synthesize_net`` on a box, then the Delaunay build and the sampled
    product structure of the new net.  Synthesis carries most of the time."""

    box_rF: float = 5.0
    grid: tuple = (50, 50)

    PRODUCT_DEPTH = 3

    def setup(self, seed: int) -> dict:
        bundle, bundle_s = _bundle()
        side = self.box_rF * bundle.rF
        return {"bundle": bundle, "bundle_s": bundle_s, "seed": seed,
                "K": nsy.Region.box([0.0, 0.0], [side, side]),
                "family": nsy.make_family(bundle, depth=self.PRODUCT_DEPTH, seed=seed)}

    def ops(self, inp: dict):
        b, K = inp["bundle"], inp["K"]
        return [
            ("synthesize", lambda st: nsy.synthesize_net(K, b, seed=inp["seed"])[0]),
            ("build_delaunay", lambda st: tess.build_delaunay(st["synthesize"], None)),
            ("product_structure", lambda st: nsy.build_product_structure(
                K, st["synthesize"], st["build_delaunay"], inp["family"],
                grid_shape=self.grid)),
        ]

    def sites(self, inp, state) -> int:
        return len(state["synthesize"])

    def check(self, inp: dict, state: dict) -> dict:
        b, K = inp["bundle"], inp["K"]
        out = {}
        net = state.get("synthesize")
        if net is not None:
            lo, hi = K.bounding_box()
            out["synthesize"] = (oracles.separation(net.points, b.d1)
                                 + oracles.density(net.points, lo, hi, b.rF / 100.0, b.d2))
        if "build_delaunay" in state:
            out["build_delaunay"] = _complex_problems(net.points, state["build_delaunay"], b.d2)
        if "product_structure" in state:
            fam = inp["family"]
            disp = {p: fam.indexed_displacements(p, net.points) for p in fam.params}
            out["product_structure"] = oracles.product_structure(
                state["product_structure"], net.points, b.d2, disp, b.rF)
        return out


# ---------------------------------------------------------------------------


@dataclass
class CertifyDeep:
    """Family certification of a jittered triangular lattice: one deep clean
    family and one shallow family carrying the criterion-8 adversarial
    override (one site moved by 10 d1).  The lattice is made here, not by
    ``synthesize_net``, so synthesis changes cannot alter this input."""

    cols: int = 32
    rows: int = 32
    depth: int = 5

    SPACING_RF = 0.142
    JITTER_RF = 0.005
    ADVERSARIAL_DEPTH = 2
    ADVERSARIAL_PARAM = "01"

    def setup(self, seed: int) -> dict:
        bundle, bundle_s = _bundle()
        rng = np.random.default_rng(seed)
        s = self.SPACING_RF * bundle.rF
        h = s * np.sqrt(3.0) / 2.0
        i, j = np.meshgrid(np.arange(self.cols), np.arange(self.rows), indexing="ij")
        nominal = np.stack([(i + 0.5 * (j % 2)) * s, j * h], axis=-1).reshape(-1, 2)
        # every lattice distance is at least 0.024 rF away from build_delaunay's
        # 2 d2 = 0.4 rF candidate reach, and jitter moves a distance by at
        # most 2 sqrt(2) 0.005 rF = 0.014 rF, so the candidate count, and with
        # it the work of a rebuild, does not depend on the seed
        pts = nominal + rng.uniform(-1.0, 1.0, nominal.shape) * self.JITTER_RF * bundle.rF
        # the box between the outermost rows and the inner zigzag columns is
        # covered by the lattice's triangles
        region = nsy.Region.box([0.5 * s, 0.0], [(self.cols - 1) * s, (self.rows - 1) * h])
        net = tess.Net(dim=2, points=pts, d1=bundle.d1, d2=bundle.d2, region=region)
        victim = int(rng.integers(len(pts)))
        adversarial = nsy.make_family(bundle, depth=self.ADVERSARIAL_DEPTH, seed=seed) \
            .with_override(self.ADVERSARIAL_PARAM, victim, [10.0 * bundle.d1, 0.0])
        return {"bundle": bundle, "bundle_s": bundle_s, "net": net,
                "family": nsy.make_family(bundle, depth=self.depth, seed=seed),
                "adversarial": adversarial}

    def validate(self, inp: dict) -> list:
        """The input must be a net that meets the construction margins."""
        b, net = inp["bundle"], inp["net"]
        lo, hi = net.region.bounding_box()
        return (oracles.separation(net.points, b.d1)
                + oracles.density(net.points, lo, hi, b.rF / 100.0, b.d2)
                + oracles.construction_margins(
                    net.points, oracles.qhull_top_set(net.points, b.d2),
                    2.0 * b.eps1 * b.rF, 1.5 * b.eps2 * b.rF))

    def ops(self, inp: dict):
        b, net = inp["bundle"], inp["net"]
        return [
            ("build_delaunay", lambda st: tess.build_delaunay(net, None)),
            ("certify_deep", lambda st: nsy.certify_family_stability(
                net, st["build_delaunay"], inp["family"], b)),
            ("certify_adversarial", lambda st: nsy.certify_family_stability(
                net, st["build_delaunay"], inp["adversarial"], b)),
        ]

    def sites(self, inp, state) -> int:
        return len(inp["net"])

    def check(self, inp: dict, state: dict) -> dict:
        b, net = inp["bundle"], inp["net"]
        base = oracles.qhull_top_set(net.points, b.d2)
        out = {}
        if "build_delaunay" in state:
            out["build_delaunay"] = _complex_problems(net.points, state["build_delaunay"], b.d2)
        fam = inp["family"]
        if "certify_deep" in state:
            cert = state["certify_deep"]
            problems = [] if cert.ok else [f"clean family failed: {cert.worst}"]
            if list(cert.params_checked) != list(fam.params) or \
                    len(fam.params) != 2 ** self.depth:
                problems.append("certificate does not cover every parameter")
            # the pass claims combinatorial identity; Qhull confirms it
            for p in fam.params:
                moved = net.points + fam.indexed_displacements(p, net.points)
                problems += oracles.compare_top_sets(
                    oracles.qhull_top_set(moved, b.d2), base, f"translate {p}")
            out["certify_deep"] = problems
        if "certify_adversarial" in state:
            cert = state["certify_adversarial"]
            adv = inp["adversarial"]
            param = self.ADVERSARIAL_PARAM
            problems = []
            if cert.ok or cert.worst.get("param") != param:
                problems.append(f"adversarial family not refused at {param}: "
                                f"ok={cert.ok} worst={cert.worst}")
            moved = net.points + adv.indexed_displacements(param, net.points)
            if oracles.qhull_top_set(moved, b.d2) == base:
                problems.append("override leaves the complex unchanged")
            out["certify_adversarial"] = problems
        return out


# ---------------------------------------------------------------------------


@dataclass
class Pipeline:
    """The documented CLI sequence, run in-process through ``cli.main``:
    each command reads the files the previous one wrote."""

    box_rF: float = 3.0
    family_depth: int = 2
    workdir_root: str = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

    COMMANDS = ("constants", "synthesize", "triangulate", "certify",
                "duality-check", "render")

    def setup(self, seed: int) -> dict:
        bundle, bundle_s = _bundle()
        side = self.box_rF * bundle.rF
        os.makedirs(self.workdir_root, exist_ok=True)
        d = tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir_root)
        f = {k: os.path.join(d, k) for k in
             ("bundle.json", "net.json", "cx.json", "cert.json", "net.svg")}
        argv = {
            "constants": ["constants", "--dim", "2", "--out", f["bundle.json"]],
            "synthesize": ["synthesize", "--bundle", f["bundle.json"],
                           "--box", f"0,0,{side!r},{side!r}", "--seed", str(seed),
                           "--out", f["net.json"]],
            "triangulate": ["triangulate", "--net", f["net.json"], "--out", f["cx.json"]],
            "certify": ["certify", "--net", f["net.json"], "--complex", f["cx.json"],
                        "--bundle", f["bundle.json"], "--family-depth",
                        str(self.family_depth), "--family-seed", str(seed),
                        "--out", f["cert.json"]],
            "duality-check": ["duality-check", "--net", f["net.json"],
                              "--complex", f["cx.json"]],
            "render": ["render", "--net", f["net.json"], "--complex", f["cx.json"],
                       "--certificate", f["cert.json"], "--out", f["net.svg"]],
        }
        return {"bundle": bundle, "bundle_s": bundle_s, "seed": seed, "side": side, "dir": d,
                "files": f, "argv": argv}

    def cleanup(self, inp: dict) -> None:
        shutil.rmtree(inp["dir"], ignore_errors=True)

    def ops(self, inp: dict):
        def command(name):
            def run(st):
                code = cli.main(list(inp["argv"][name]))
                if code != 0:
                    raise RuntimeError(f"delone {name} exited {code}")
                return code
            return run
        return [(name, command(name)) for name in self.COMMANDS]

    def sites(self, inp, state) -> int:
        with open(inp["files"]["net.json"]) as f:
            return len(json.load(f)["points"])

    def reference(self, inp: dict) -> dict:
        """The same pipeline through the library API, as in-memory results
        the artifacts must equal."""
        if "reference" not in inp:
            b = inp["bundle"]
            K = nsy.Region.box([0.0, 0.0], [inp["side"], inp["side"]])
            net = nsy.synthesize_net(K, b, seed=inp["seed"])[0]
            cx = tess.build_delaunay(net, None)
            fam = nsy.make_family(b, depth=self.family_depth, seed=inp["seed"])
            cert = nsy.certify_family_stability(net, cx, fam, b)
            inp["reference"] = {
                "bundle.json": jsonio.dumps(jsonio.bundle_to_dict(b)),
                "net.json": jsonio.dumps(jsonio.net_to_dict(net)),
                "cx.json": jsonio.dumps(jsonio.complex_to_dict(cx, 2)),
                "cert.json": jsonio.dumps(jsonio.certificate_to_dict(cert)),
            }
        return inp["reference"]

    def check(self, inp: dict, state: dict) -> dict:
        b, f = inp["bundle"], inp["files"]
        ref = self.reference(inp)
        out = {}

        def same(key):
            with open(f[key]) as fh:
                text = fh.read()
            return [] if text == ref[key] else [f"{key} differs from the API result"]

        if "constants" in state:
            out["constants"] = same("bundle.json")
        if "synthesize" not in state:
            return out
        net = jsonio.net_from_dict(jsonio.read(f["net.json"]))
        lo, hi = [0.0, 0.0], [inp["side"]] * 2
        out["synthesize"] = (same("net.json") + oracles.separation(net.points, b.d1)
                             + oracles.density(net.points, lo, hi, b.rF / 100.0, b.d2))
        if "triangulate" in state:
            cx = jsonio.complex_from_dict(jsonio.read(f["cx.json"]))
            out["triangulate"] = same("cx.json") + _complex_problems(net.points, cx, b.d2)
        if "certify" in state:
            cert = jsonio.read(f["cert.json"])
            out["certify"] = same("cert.json") + (
                [] if cert["pass"] else [f"certificate failed: {cert['worst']}"])
        if "duality-check" in state:
            out["duality-check"] = []  # exit 0 is the program's duality verdict
        if "render" in state:
            try:
                svg = ET.parse(f["net.svg"]).getroot()
                circles = sum(1 for e in svg.iter() if e.tag.endswith("circle"))
                out["render"] = ([] if circles == len(net) else
                                 [f"svg shows {circles} of {len(net)} sites"])
            except ET.ParseError as exc:
                out["render"] = [f"svg does not parse: {exc}"]
        return out


WORKLOADS = {
    "synth_5rF": Synth,
    "certify_deep": CertifyDeep,
    "pipeline_3rF": Pipeline,
}
