"""Shared fixtures: a validated constant bundle and synthesized nets.

The expensive artifacts (bundle, nets, complexes) are session-scoped so the
unit suites and the acceptance suite share one build.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from delone import constants as consts
from delone import netsynth as nsy
from delone import tessellation as tess


@pytest.fixture(scope="session")
def bundle2():
    return consts.default_practical_bundle(2)


@pytest.fixture(scope="session")
def small_net_pack(bundle2):
    """Net over a 3rF x 3rF box, used by the cheaper end-to-end checks."""
    K = nsy.Region.box([0.0, 0.0], [3.0 * bundle2.rF, 3.0 * bundle2.rF])
    net, report = nsy.synthesize_net(K, bundle2, seed=7)
    return {"K": K, "net": net, "report": report}


@pytest.fixture(scope="session")
def small_complex(small_net_pack):
    return tess.build_delaunay(small_net_pack["net"], None)


@pytest.fixture(scope="session")
def big_net_pack(bundle2):
    """Seed-42 net over the 10rF x 10rF box, with its synthesis wall time."""
    K = nsy.Region.box([0.0, 0.0], [10.0 * bundle2.rF, 10.0 * bundle2.rF])
    t0 = time.perf_counter()
    net, report = nsy.synthesize_net(K, bundle2, seed=42)
    elapsed = time.perf_counter() - t0
    return {"K": K, "net": net, "report": report, "elapsed": elapsed}


@pytest.fixture(scope="session")
def big_complex(big_net_pack):
    return tess.build_delaunay(big_net_pack["net"], None)


def robustness_2d(stacks: np.ndarray) -> np.ndarray:
    """Reference robustness of (m, 3, 2) vertex stacks by the planar
    formula: the least of |ab| and the height of c over line ab."""
    a, b, c = stacks[:, 0], stacks[:, 1], stacks[:, 2]
    ab = b - a
    lab = np.linalg.norm(ab, axis=1)
    cr = np.abs((c - a)[:, 0] * ab[:, 1] - (c - a)[:, 1] * ab[:, 0])
    h = np.where(lab > 0, cr / np.maximum(lab, 1e-300), 0.0)
    return np.minimum(lab, h)


def scalar_barycentric(simplex_pts, q) -> np.ndarray:
    """Reference barycentric coordinates of one point in one n-simplex: one
    LAPACK solve of the edge system with a vector right-hand side."""
    p = np.asarray(simplex_pts, dtype=float)
    a = (p[:-1] - p[-1]).T
    lam = np.linalg.solve(a, np.asarray(q, dtype=float) - p[-1])
    return np.append(lam, 1.0 - float(np.sum(lam)))
