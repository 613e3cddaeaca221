"""Synthesis and validation of the quantitative constant ladder.

The ladder starts from the combinatorial count C_n, derives the widths
eps1..eps3 of the exclusion regions, then eps4 (frame-alignment accuracy) by
binary search against the perturbed-robustness recursion over the rho-hat
chain, then the Gram-Schmidt threshold gs_delta = delta_n(eps4) in closed
form (``metrics.gs_delta``), then eps0 as the largest value clearing eight
explicit constraints, and finally the working scale rF with its derived
d-ladder.

Two modes share one inequality system: ``paper`` evaluates the worst-case
formulas verbatim (astronomically small for n >= 2), ``practical`` accepts a
user-supplied (eps1..eps4) tuple and validates it against the identical
inequalities, so every downstream certification bound still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import metrics as mt
from . import robustness
from .errors import InvalidBudgetError, ValidationError

#: r_star of every bundle, and the cap of ``paper.compute_r_star``.
R_STAR_CAP = 1.0

#: Ratios of the d-ladder (d1, d1', d1'', d2'', d2', d2) to rF.
D_LADDER_RATIOS = (0.10, 0.11, 0.12, 0.18, 0.19, 0.20)

#: Safety factor for the practical-mode default eps0 below its tightest bound.
EPS0_PRACTICAL_SAFETY = 0.7

#: How gs_delta is derived, as recorded in a bundle's provenance.
GS_DELTA_PROVENANCE = "min(eps4/(2n), 1/(3n), GS_DELTA_MAX/2), rounded down"

_EPS0_CONSTRAINT_IDS = (
    "lt_1_2000",
    "le_50n_(2/5)^n_eps1",
    "lt_eps2_2000",
    "lt_eps3_4",
    "lt_eps1_2",
    "lt_eps3_alignment",
    "lt_eps4_20",
    "lt_gs_delta_100",
)


def compute_Cn(n: int) -> int:
    """Sum_{k=1}^{n+1} binom(10^n, k), exact integer arithmetic."""
    if not 1 <= n <= 8:
        raise ValueError("n must be in 1..8")
    return sum(math.comb(10**n, k) for k in range(1, n + 2))


def compute_eps_ladder(n: int):
    """(eps1, eps2, eps3): annulus width, slab thickness, center-translation
    scale, all relative to rF."""
    cn = compute_Cn(n)
    eps1 = 1.0 / (cn * 1000 * n * 100**n)
    eps2 = 1.0 / (cn * 2000 * 2**n)
    eps3 = eps1 / 10.0
    return eps1, eps2, eps3


def rho_hat(n: int, eps2: float, k: int) -> float:
    return (18.0 - (2.0 * k) / (3.0 * n)) * eps2


def rho_hat_prime(n: int, eps2: float, k: int) -> float:
    return (18.0 - (2.0 * k + 1.0) / (3.0 * n)) * eps2


def rho_hat_ladder(n: int, eps2: float):
    """The strictly decreasing chain (rho_hat_k, rho_hat'_k), k = 0..n+1,
    interleaved between 18*eps2 and 15*eps2."""
    return [(rho_hat(n, eps2, k), rho_hat_prime(n, eps2, k)) for k in range(n + 2)]


def _rho_after(n: int, rho0: float, eps4: float) -> float:
    """rho_n(rho0, 10*eps4) under the normalized recursion (e1, e2) = (1, 2)."""
    return robustness.rho_m_recursion(rho0, 10.0 * eps4, 1.0, 2.0, n)


def eps4_inequalities_hold(n: int, eps2: float, eps4: float) -> bool:
    """The 2n+2 interleaving inequalities at accuracy eps4.

    For 1 <= k <= n+1:
      rho_hat_k  > rho_n(rho_hat_k, 10 eps4)  > rho_hat'_k  + eps2/100
      rho_hat'_k > rho_n(rho_hat'_k, 10 eps4) > rho_hat_{k+1} + eps2/100
    """
    if eps4 <= 0:
        return False
    margin = eps2 / 100.0
    try:
        for k in range(1, n + 2):
            rh = rho_hat(n, eps2, k)
            rhp = rho_hat_prime(n, eps2, k)
            r1 = _rho_after(n, rh, eps4)
            if not (rh > r1 > rhp + margin):
                return False
            r2 = _rho_after(n, rhp, eps4)
            if not (rhp > r2 > rho_hat(n, eps2, k + 1) + margin):
                return False
    except InvalidBudgetError:
        return False
    return True


def compute_eps4(n: int, eps2: float) -> float:
    """Largest eps4 (binary search) satisfying eps4_inequalities_hold.

    The returned value is re-verified by direct substitution; monotonicity
    makes the search sound.
    """
    hi = eps2  # far above any feasible value; the recursion kills it
    lo = 0.0
    if eps4_inequalities_hold(n, eps2, hi):
        raise AssertionError("search interval does not bracket the threshold")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if eps4_inequalities_hold(n, eps2, mid):
            lo = mid
        else:
            hi = mid
    if lo <= 0.0 or not eps4_inequalities_hold(n, eps2, lo):
        raise ValidationError(f"no positive float64 eps4 satisfies the interleaving "
                              f"inequalities at n = {n}, eps2 = {eps2!r}", path="eps4")
    return lo


def eps0_bounds(n: int, eps1: float, eps2: float, eps3: float, eps4: float,
                gs_delta: float) -> dict:
    """The eight upper bounds constraining eps0, keyed by constraint id.

    gs_delta is the Gram-Schmidt threshold delta_n(eps4) of
    ``metrics.gs_delta``.
    """
    align = eps3 / (2.0 * (1.0 + 35.0 * n**1.5 * (4.0 / (15.0 * eps2)) ** (n - 1)))
    return dict(zip(_EPS0_CONSTRAINT_IDS, (
        1.0 / 2000.0,
        50.0 * n * (2.0 / 5.0) ** n * eps1,
        eps2 / 2000.0,
        eps3 / 4.0,
        eps1 / 2.0,
        align,
        eps4 / 20.0,
        gs_delta / 100.0,
    )))


def eps0_constraints_hold(eps0: float, bounds: dict) -> bool:
    """eps0 is positive and clears each of the eight upper bounds."""
    return eps0 > 0 and all(eps0 <= b if cid == "le_50n_(2/5)^n_eps1" else eps0 < b
                            for cid, b in bounds.items())


def compute_eps0(n: int, eps1: float, eps2: float, eps3: float, eps4: float,
                 gs_delta: float):
    """Largest eps0 on a halving grid clearing all eight constraints.

    Returns (eps0, binding_constraint_id) where the binding id names the
    smallest upper bound.
    """
    bounds = eps0_bounds(n, eps1, eps2, eps3, eps4, gs_delta)
    binding = min(bounds, key=bounds.get)
    eps0 = 1.0
    for _ in range(4000):
        if eps0_constraints_hold(eps0, bounds):
            return eps0, binding
        eps0 *= 0.5
    raise ValidationError(f"no positive float64 eps0 clears its bounds at n = {n}; the "
                          f"least is {bounds[binding]!r} ({binding})", path="eps0")


def practical_eps0(n: int, eps1: float, eps2: float, eps3: float, eps4: float,
                   gs_delta: float) -> float:
    """Default eps0 for practical mode: a safety factor below the tightest
    of the eight bounds."""
    bounds = eps0_bounds(n, eps1, eps2, eps3, eps4, gs_delta)
    return EPS0_PRACTICAL_SAFETY * min(bounds.values())


def compute_rF(metric: mt.MetricModel, eps0: float, dFU: float, lF: float) -> float:
    """Basic working scale: min{dFU, lF/5, lambda_{eps0}, 1}.

    Exactly-Euclidean metrics contribute an unbounded lambda, reducing to
    min{dFU, lF/5, 1}.  Raises ValidationError when the working radius
    lambda_{eps0} is 0 or not finite.
    """
    lam = mt.find_lambda_eps(metric, eps0)
    if not (math.isfinite(lam) and lam > 0):
        raise ValidationError(f"working radius lambda_eps0 = {lam!r} at eps0 = "
                              f"{eps0!r} on metric {metric.selector()} is not a "
                              f"positive number", path="bundle.rF")
    return float(min(dFU, lF / 5.0, lam, 1.0))


def d_ladder(rF: float):
    """(d1, d1', d1'', d2'', d2', d2) = (.10,.11,.12,.18,.19,.20) * rF."""
    return tuple(r * rF for r in D_LADDER_RATIOS)


@dataclass(frozen=True)
class ConstantBundle:
    """Validated constant ladder for one dimension and mode."""

    n: int
    mode: str  # "paper" | "practical"
    Cn: int
    eps0: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    rF: float
    r_star: float
    d1: float
    d1p: float
    d1pp: float
    d2pp: float
    d2p: float
    d2: float
    rho_hat: tuple  # ((rho_hat_k, rho_hat'_k), ...)
    gs_delta: float
    binding_eps0: str
    v2: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        validate_bundle(self)


def validate_bundle(b: ConstantBundle) -> None:
    """Assert every bundle invariant; raises ValidationError otherwise.  A
    stored entry must match its formula to 1e-12 of its own size."""
    def off(have, want):
        return not math.isclose(have, want, rel_tol=1e-12)

    if b.mode not in ("paper", "practical"):
        raise ValidationError(f"unknown mode {b.mode!r}", path="mode")
    if not 1 <= b.n <= 8:
        raise ValidationError(f"n must be in 1..8, got {b.n}", path="n")
    if b.Cn != compute_Cn(b.n):
        raise ValidationError("Cn does not match its formula", path="Cn")
    if not 0 < b.rF <= 1.0:
        raise ValidationError("rF must lie in (0, 1]", path="rF")
    if off(b.r_star, R_STAR_CAP):
        raise ValidationError(f"r_star must be R_STAR_CAP = {R_STAR_CAP}", path="r_star")
    for key, value in b.v2.items():  # "e1,e2": v2_constant(e1, e2)
        try:
            e1, e2 = map(float, str(key).split(","))
        except ValueError:
            e1 = e2 = math.nan
        # in this range v2_constant's floats neither overflow nor pass through
        # subnormals, whose lost digits can leave its ulp descent ~1e15 steps
        # long (key "2e-108,3e-108")
        if not 1e-100 <= e1 < e2 <= 1e100:
            raise ValidationError("key must be 'e1,e2' with 1e-100 <= e1 < e2 <= 1e100",
                                  path=f"v2.{key}")
        if off(value, robustness.v2_constant(e1, e2)):
            raise ValidationError("v2 entry off-formula", path=f"v2.{key}")
    for name in ("eps0", "eps1", "eps2", "eps3", "eps4", "gs_delta"):
        if not 0 < getattr(b, name) < math.inf:
            raise ValidationError("must be positive and finite", path=name)
    ladder = (b.d1, b.d1p, b.d1pp, b.d2pp, b.d2p, b.d2)
    for lo, hi in zip(ladder, ladder[1:]):
        if not lo < hi:
            raise ValidationError("d-ladder not strictly increasing", path="d")
    if any(off(val, ratio * b.rF) for val, ratio in zip(ladder, D_LADDER_RATIOS)):
        raise ValidationError("d-ladder not proportional to rF", path="d")
    if off(b.d2, 2.0 * b.d1):
        raise ValidationError("d2 != 2*d1", path="d")
    # rho-hat chain: 2(n+2) entries strictly decreasing in (15 eps2, 18 eps2]
    if len(b.rho_hat) != b.n + 2 or any(len(pair) != 2 for pair in b.rho_hat):
        raise ValidationError("rho_hat ladder has the wrong length", path="rho_hat")
    flat = [x for pair in b.rho_hat for x in pair]
    if off(flat[0], 18.0 * b.eps2):
        raise ValidationError("rho_hat_0 != 18*eps2", path="rho_hat")
    for lo, hi in zip(flat[1:], flat):
        if not lo < hi:
            raise ValidationError("rho_hat chain not strictly decreasing", path="rho_hat")
    if not flat[-1] > 15.0 * b.eps2:
        raise ValidationError("rho_hat chain leaves (15 eps2, 18 eps2]", path="rho_hat")
    for k in range(b.n + 2):
        if off(b.rho_hat[k][0], rho_hat(b.n, b.eps2, k)) or \
           off(b.rho_hat[k][1], rho_hat_prime(b.n, b.eps2, k)):
            raise ValidationError("rho_hat entry off-formula", path=f"rho_hat[{k}]")
    if not eps4_inequalities_hold(b.n, b.eps2, b.eps4):
        raise ValidationError("eps4 interleaving inequalities fail", path="eps4")
    if b.gs_delta != mt.gs_delta(b.n, b.eps4):
        raise ValidationError("gs_delta does not match its formula at (n, eps4)",
                              path="gs_delta")
    bounds = eps0_bounds(b.n, b.eps1, b.eps2, b.eps3, b.eps4, b.gs_delta)
    if not eps0_constraints_hold(b.eps0, bounds):
        raise ValidationError("eps0 constraints fail", path="eps0")
    if b.mode == "paper":
        e1, e2, e3 = compute_eps_ladder(b.n)
        for name, have, want in (("eps1", b.eps1, e1), ("eps2", b.eps2, e2),
                                 ("eps3", b.eps3, e3)):
            if off(have, want):
                raise ValidationError(f"paper-mode {name} off-formula", path=name)


def _finish_bundle(n, mode, eps0, eps1, eps2, eps3, eps4, gs_delta, binding,
                   metric, provenance) -> ConstantBundle:
    if metric is None:
        metric = mt.MetricModel.flat(n)
    elif metric.n != n:
        raise ValidationError(f"metric {metric.selector()} is {metric.n}-dimensional, "
                              f"the bundle {n}-dimensional", path="metric")
    # one leaf, no foliated-chart limits: dFU = 1 and lF = inf leave
    # rF = min{lambda_eps0, 1}
    rF = compute_rF(metric, eps0, 1.0, math.inf)
    d1, d1p, d1pp, d2pp, d2p, d2 = d_ladder(rF)
    v2 = {"1,2": robustness.v2_constant(1.0, 2.0)}
    return ConstantBundle(
        n=n, mode=mode, Cn=compute_Cn(n),
        eps0=eps0, eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4,
        rF=rF, r_star=R_STAR_CAP,
        d1=d1, d1p=d1p, d1pp=d1pp, d2pp=d2pp, d2p=d2p, d2=d2,
        rho_hat=tuple(rho_hat_ladder(n, eps2)),
        gs_delta=gs_delta, binding_eps0=binding, v2=v2,
        provenance=provenance,
    )


def paper_bundle(n: int, metric: mt.MetricModel | None = None) -> ConstantBundle:
    """The worst-case ladder evaluated verbatim from its formulas."""
    eps1, eps2, eps3 = compute_eps_ladder(n)
    eps4 = compute_eps4(n, eps2)
    gs_delta = mt.gs_delta(n, eps4)
    eps0, binding = compute_eps0(n, eps1, eps2, eps3, eps4, gs_delta)
    prov = {
        "eps1": "1/(Cn*1000*n*100^n)",
        "eps2": "1/(Cn*2000*2^n)",
        "eps3": "eps1/10",
        "eps4": "binary search over the interleaving inequalities",
        "gs_delta": GS_DELTA_PROVENANCE,
        "eps0": "halving grid under the eight constraints",
        "seed": 0,
    }
    return _finish_bundle(n, "paper", eps0, eps1, eps2, eps3, eps4, gs_delta,
                          binding, metric, prov)


def practical_bundle(n: int, eps1: float, eps2: float, eps3: float, eps4: float,
                     eps0: float | None = None,
                     metric: mt.MetricModel | None = None) -> ConstantBundle:
    """A user-supplied ladder validated against the identical inequality
    system; eps0 defaults to a safety factor below its tightest bound.
    Each supplied entry is checked first, so a bad one is named, not eps0,
    whose default it would poison."""
    for name, value in (("eps1", eps1), ("eps2", eps2), ("eps3", eps3),
                        ("eps4", eps4), ("eps0", eps0)):
        if value is not None and not 0 < value < math.inf:
            raise ValidationError("must be positive and finite", path=name)
    if not eps4_inequalities_hold(n, eps2, eps4):
        raise ValidationError("supplied eps4 fails the interleaving inequalities",
                              path="eps4")
    gs_delta = mt.gs_delta(n, eps4)
    if eps0 is None:
        eps0 = practical_eps0(n, eps1, eps2, eps3, eps4, gs_delta)
    bounds = eps0_bounds(n, eps1, eps2, eps3, eps4, gs_delta)
    if not eps0_constraints_hold(eps0, bounds):
        raise ValidationError("supplied eps0 fails its constraints", path="eps0")
    binding = min(bounds, key=bounds.get)
    prov = {"eps1": repr(eps1), "eps2": repr(eps2), "eps3": repr(eps3),
            "eps4": repr(eps4), "gs_delta": GS_DELTA_PROVENANCE,
            "eps0": "supplied or safety default", "seed": 0}
    return _finish_bundle(n, "practical", eps0, eps1, eps2, eps3, eps4, gs_delta,
                          binding, metric, prov)


def default_practical_bundle(n: int = 2, **kw) -> ConstantBundle:
    """A validated desk-scale ladder for n = 2 used by the pipeline defaults."""
    if n != 2:
        raise ValueError("defaults are tuned for n = 2; supply your own ladder")
    return practical_bundle(2, eps1=1e-8, eps2=1e-5, eps3=1e-5, eps4=2e-9, **kw)
