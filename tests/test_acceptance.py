"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line for its criterion; the assertion
carries the same condition so the suite stays honest.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from conftest import robustness_2d

from delone import circumsphere as cs
from delone import cli, jsonio, linalg
from delone import metrics as mt
from delone import netsynth as nsy
from delone import paper
from delone import robustness as rb
from delone import tessellation as tess
from delone.netsynth import _row_dots


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{extra}")


def _random_simplices(rng, count, n):
    """(count, n+1, n) stacks, resampled until all are nondegenerate."""
    pts = rng.standard_normal((count, n + 1, n))
    while True:
        _, _, valid = cs.circumcenter_batch(pts)
        bad = ~valid
        if not np.any(bad):
            return pts
        pts[bad] = rng.standard_normal((int(np.sum(bad)), n + 1, n))


def test_criterion_01_circumcenter_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for n in (2, 3, 4):
        pts = _random_simplices(rng, 10_000, n)
        centers, radii, valid = cs.circumcenter_batch(pts)
        assert valid.all()
        d = np.linalg.norm(pts - centers[:, None, :], axis=2)
        worst = max(worst, float(np.max(np.abs(d - radii[:, None]) / radii[:, None])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "circumcenter correctness",
            ok, f"residual {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_inverse_norm_bound():
    rng = np.random.default_rng(200)
    trials = 0
    holds = 0
    while trials < 10_000:
        n = int(rng.integers(1, 6))
        m = rng.standard_normal((n, n))
        try:
            bound = paper.inverse_norm_bound(m, paper.column_norm_bound(m))
        except Exception:
            continue
        trials += 1
        if bound >= np.linalg.norm(np.linalg.inv(m), 2) * (1.0 - 1e-12):
            holds += 1
    ok = holds == trials
    _report(2, "Hadamard inverse-norm bound", ok, f"{holds}/{trials} held")
    assert ok


def test_criterion_03_perturbation_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    n = 2
    configs = 0
    violations = 0
    while configs < 1000:
        pts = rng.uniform(0.0, 3.0, size=(n + 1, n))
        dists = [np.linalg.norm(pts[i] - pts[j])
                 for i, j in itertools.combinations(range(n + 1), 2)]
        delta = abs(linalg.determinant(paper.edge_matrix(pts)))
        if min(dists) < 0.5 or delta < 0.1:
            continue
        configs += 1
        rho = rb.prefix_distances(pts[None])[0].min()
        budget0 = cs.PerturbationBudget(e1=0.5 * min(dists), e2=max(dists),
                                        eps=0.0, rho=rho, delta=delta)
        eps = paper.stability_radius(budget0, n)
        budget = cs.PerturbationBudget(e1=budget0.e1, e2=budget0.e2,
                                       eps=eps, rho=rho, delta=delta)
        bound = cs.displacement_bound(budget, n)
        center = cs.circumcenter(pts).center
        # 100 perturbations, each vertex moved by at most eps
        noise = rng.standard_normal((100, n + 1, n))
        noise /= np.maximum(np.linalg.norm(noise, axis=2, keepdims=True), 1e-300)
        noise *= eps * rng.uniform(0.0, 1.0, size=(100, n + 1, 1))
        moved = pts[None, :, :] + noise
        mc, mr, mvalid = cs.circumcenter_batch(moved)
        if not mvalid.all():
            violations += 1
            continue
        disp = np.linalg.norm(mc - center, axis=1)
        if np.any(disp > bound):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(3, "perturbation soundness", ok,
            f"{violations} violations over 1000x100 trials, {elapsed:.1f}s")
    assert ok


def test_criterion_04_rho_m_recursion():
    rho0, eps = 1.0, 0.01
    exact = (rb.rho_m_recursion(rho0, eps, 1.0, 2.0, 1) == rho0 - 2.0 * eps
             and rb.delta_m_sequence(rho0, eps, 1.0, 2.0, 2)[1] == 50.0)
    rng = np.random.default_rng(400)
    checked = 0
    violations = 0
    while checked < 1000:
        pts = rng.uniform(0.0, 3.0, size=(3, 2))
        d = [np.linalg.norm(pts[i] - pts[j])
             for i, j in itertools.combinations(range(3), 2)]
        rho = rb.prefix_distances(pts[None])[0].min()
        if min(d) < 1.0 or max(d) > 3.9 or rho < 0.1:
            continue
        checked += 1
        e = rho / 200.0  # < e1/4 = 0.25 and keeps rho_2 = 0.75 rho positive
        rho_m = rb.rho_m_recursion(rho, e, 1.0, 2.0, 2)
        noise = rng.standard_normal((20, 3, 2))
        noise /= np.maximum(np.linalg.norm(noise, axis=2, keepdims=True), 1e-300)
        noise *= e * rng.uniform(0.0, 1.0, size=(20, 3, 1))
        for moved in pts[None] + noise:
            if rb.prefix_distances(moved[None])[0].min() < rho_m - 1e-12:
                violations += 1
    ok = exact and violations == 0
    _report(4, "rho_m recursion", ok,
            f"exact identities {'ok' if exact else 'FAILED'}, "
            f"{violations} sampled violations")
    assert ok


def _brute_force_tops(pts, n, d2):
    ref = set()
    combos = np.array(list(itertools.combinations(range(len(pts)), n + 1)),
                      dtype=np.int64)
    if not len(combos):
        return ref
    centers, radii, valid = cs.circumcenter_batch(pts[combos])
    for k in np.nonzero(valid & (radii <= d2))[0]:
        d = np.linalg.norm(pts - centers[k], axis=1)
        if np.all(d >= radii[k] * (1.0 - 1e-12)):
            ref.add(tuple(int(v) for v in combos[k]))
    return ref


def _poisson(rng, count, min_sep, dim, box=1.0):
    """Rejection sampling of up to ``count`` points min_sep apart: one
    uniform draw per try, tested against every point kept so far with the
    per-pair ``np.dot`` bits of |p - q|."""
    pts = np.empty((count, dim))
    got = tries = 0
    while got < count and tries < 500 * count:
        tries += 1
        p = rng.uniform(0.0, box, size=dim)
        d = pts[:got] - p
        if np.all(np.sqrt(_row_dots(d, d)) >= min_sep):
            pts[got] = p
            got += 1
    return pts[:got]


def test_criterion_05_duality():
    rng = np.random.default_rng(500)
    mismatches = 0
    cell_violations = 0
    cases = [(2, 100, 0.1, 0.35, 60), (3, 50, 0.22, 0.55, 18)]
    for dim, runs, d1, d2, maxpts in cases:
        for _ in range(runs):
            count = int(rng.integers(dim + 2, maxpts + 1))
            pts = _poisson(rng, count, d1 * 1.2, dim)
            net = tess.Net(dim=dim, points=pts, d1=d1, d2=d2)
            cx = tess.build_delaunay(net, None)
            got = {s.vertices for s in cx.top(dim)}
            if got != _brute_force_tops(pts, dim, d2):
                mismatches += 1
                continue
            for s in cx.top(dim):
                d = np.linalg.norm(pts - s.sphere.center, axis=1)
                dmin = float(np.min(d))
                if any(d[v] > dmin + 1e-9 for v in s.vertices):
                    cell_violations += 1
    ok = mismatches == 0 and cell_violations == 0
    _report(5, "Voronoi/Delaunay duality", ok,
            f"{mismatches} set mismatches, {cell_violations} cell violations")
    assert ok


def test_criterion_06_net_synthesis_quality(bundle2, big_net_pack):
    from scipy.spatial import cKDTree

    net = big_net_pack["net"]
    K = big_net_pack["K"]
    elapsed = big_net_pack["elapsed"]
    rF = bundle2.rF
    sep = net.closest_pair()[0]
    grid = paper.region_grid(K, rF / 100.0)
    dens, _ = cKDTree(net.points).query(grid)
    dens = float(np.max(dens))
    ok = sep >= 0.114 * rF and dens <= 0.181 * rF and elapsed < 120.0
    _report(6, "net synthesis quality", ok,
            f"separation {sep:.4f}rF, density {dens:.4f}rF, {elapsed:.1f}s")
    assert ok


def test_criterion_07_construction_margins(bundle2, big_net_pack, big_complex):
    from scipy.spatial import cKDTree

    net = big_net_pack["net"]
    top = big_complex.top(2)
    verts = np.array([s.vertices for s in top], dtype=np.int64)
    centers = np.array([s.sphere.center for s in top])
    radii = np.array([s.sphere.radius for s in top])
    d, _ = cKDTree(net.points).query(centers, k=4)
    clearance = d[:, 3] - radii  # 4th neighbor = nearest non-vertex point
    rho = robustness_2d(net.points[verts])
    clear_min = 2.0 * bundle2.eps1 * bundle2.rF
    rho_min = 1.5 * bundle2.eps2 * bundle2.rF
    bad_clear = int(np.sum(clearance < clear_min))
    bad_rho = int(np.sum(rho < rho_min))
    ok = bad_clear == 0 and bad_rho == 0
    _report(7, "construction margins", ok,
            f"{len(top)} simplices, min clearance {np.min(clearance):.2e}, "
            f"min robustness {np.min(rho):.2e}")
    assert ok


def test_criterion_08_family_stability(bundle2, small_net_pack, small_complex):
    net = small_net_pack["net"]
    family = nsy.make_family(bundle2, depth=4, seed=0)
    cert = nsy.certify_family_stability(net, small_complex, family, bundle2)
    adversarial = family.with_override("0001", 0, [10.0 * bundle2.d1, 0.0])
    bad = nsy.certify_family_stability(net, small_complex, adversarial, bundle2)
    witness_named = (not bad.ok and bad.worst["param"] == "0001"
                     and bad.worst["quantity"] is not None)
    ok = cert.ok and len(cert.params_checked) == 16 and witness_named
    _report(8, "family stability certification", ok,
            f"16-param pass={cert.ok}, adversarial witness "
            f"{bad.worst['quantity']}@{bad.worst['param']}")
    assert ok


def test_criterion_09_riemannian_certification():
    m = mt.MetricModel.sphere(1.0)
    eps = 0.01
    lam = mt.find_lambda_eps(m, eps)
    # audit the closed form with fresh samples over the probe frames
    fresh_ok = True
    broken = False
    for k, frame in enumerate(paper._lambda_probe_frames(m, lam)):
        rep = paper.check_approx_euclidean(m, frame, lam, eps, sample_count=1000,
                                           rng=np.random.default_rng(900 + k))
        fresh_ok = fresh_ok and bool(rep.passed)
        rep2 = paper.check_approx_euclidean(m, frame, 2.0 * lam, eps,
                                            sample_count=1000,
                                            rng=np.random.default_rng(7900 + k))
        broken = broken or rep2.geodesic_deviation > eps \
            or rep2.chord_deviation > eps
    ok = lam > 0 and fresh_ok and broken
    _report(9, "Riemannian certification", ok,
            f"lambda {lam:.4f}, fresh pass={fresh_ok}, "
            f"2-lambda geodesic/chord broken={broken}")
    assert ok


def test_criterion_10_big_box_product(bundle2, big_net_pack, big_complex):
    net = big_net_pack["net"]
    K = big_net_pack["K"]
    family = nsy.make_family(bundle2, depth=3, seed=0)
    ps = nsy.build_product_structure(K, net, big_complex, family,
                                     grid_shape=(50, 50))
    classes_ok = all(c == 8 for c in ps.class_sizes)
    face_ok = ps.face_agreement_max <= 1e-9 * bundle2.rF
    ok = ps.injective and classes_ok and face_ok
    _report(10, "big-box product structure", ok,
            f"injective={ps.injective}, classes-of-8={classes_ok}, "
            f"face agreement {ps.face_agreement_max:.2e}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    def pipeline(d):
        d.mkdir()
        b, n, c, ce, sv = (str(d / x) for x in
                           ("bundle.json", "net.json", "cx.json",
                            "cert.json", "net.svg"))
        assert cli.main(["constants", "--dim", "2", "--out", b]) == 0
        assert cli.main(["synthesize", "--bundle", b, "--box", "0,0,0.5,0.5",
                         "--seed", "13", "--out", n]) == 0
        assert cli.main(["triangulate", "--net", n, "--out", c]) == 0
        assert cli.main(["certify", "--net", n, "--complex", c, "--bundle", b,
                         "--family-depth", "2", "--out", ce]) == 0
        assert cli.main(["render", "--net", n, "--complex", c,
                         "--certificate", ce, "--out", sv]) == 0
        return {x: (d / x).read_bytes() for x in
                ("bundle.json", "net.json", "cx.json", "cert.json", "net.svg")}

    run1 = pipeline(tmp_path / "run1")
    run2 = pipeline(tmp_path / "run2")
    ok = run1 == run2
    _report(11, "pipeline determinism", ok,
            "byte-identical artifacts" if ok else "artifacts differ")
    assert ok


#: sha256 of ``synthesize``'s net.json for a 3 rF box, seed 1, default bundle.
NET_3RF_SEED1_SHA256 = "08a27eb565883308a20b52d30096ca5350387792c1480a3ba8e763dd599c91dd"

#: sha256 of the other artifacts of the same run: the default bundle, then
#: ``triangulate``, ``certify --family-depth 2`` and ``render`` of that net.
ARTIFACTS_3RF_SEED1_SHA256 = {
    "bundle.json": "fcdde416aa1ffc16c213c399f10c871c57a3795f6b850604f0a5a5f8d21474cc",
    "cx.json": "dfa3c9c4c595d60e64630d1a04e5f0702a38106cd04eabeaa88bd998d4a11036",
    "cert.json": "354a4652be28b95e87a12dadaeefc563425e242b50e833a59339a2bc607a26a6",
    "net.svg": "07876c055e6e8e325fee7a122bda341f709ad061486e5c7d98dcb601996cae89",
}


def test_criterion_11_net_baseline(tmp_path, bundle2):
    # two runs of one tree agree even when both change; this pins the bytes
    b, n, c, ce, sv = (str(tmp_path / x) for x in
                       ("bundle.json", "net.json", "cx.json", "cert.json", "net.svg"))
    side = 3.0 * bundle2.rF
    assert cli.main(["constants", "--dim", "2", "--out", b]) == 0
    assert cli.main(["synthesize", "--bundle", b, "--box", f"0,0,{side!r},{side!r}",
                     "--seed", "1", "--out", n]) == 0
    digest = hashlib.sha256((tmp_path / "net.json").read_bytes()).hexdigest()
    assert digest == NET_3RF_SEED1_SHA256
    assert cli.main(["triangulate", "--net", n, "--out", c]) == 0
    assert cli.main(["certify", "--net", n, "--complex", c, "--bundle", b,
                     "--family-depth", "2", "--out", ce]) == 0
    assert cli.main(["render", "--net", n, "--complex", c, "--certificate", ce,
                     "--out", sv]) == 0
    digests = {x: hashlib.sha256((tmp_path / x).read_bytes()).hexdigest()
               for x in ARTIFACTS_3RF_SEED1_SHA256}
    assert digests == ARTIFACTS_3RF_SEED1_SHA256
