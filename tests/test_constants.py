import math
import re

import numpy as np
import pytest

from delone import constants as consts
from delone import jsonio
from delone import metrics as mt
from delone import paper
from delone.errors import ValidationError


class TestCn:
    def test_n1_value(self):
        # sum_{k=1}^{2} binom(10, k) = 10 + 45 = 55
        assert consts.compute_Cn(1) == 55

    def test_n2_exact(self):
        assert consts.compute_Cn(2) == sum(math.comb(100, k) for k in (1, 2, 3))

    def test_monotone(self):
        vals = [consts.compute_Cn(n) for n in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            consts.compute_Cn(0)
        with pytest.raises(ValueError):
            consts.compute_Cn(9)


class TestEpsLadder:
    def test_n1_values(self):
        e1, e2, e3 = consts.compute_eps_ladder(1)
        assert e1 == pytest.approx(1.0 / (55 * 1000 * 1 * 100))
        assert e2 == pytest.approx(1.0 / (55 * 2000 * 2))
        assert e3 == pytest.approx(e1 / 10.0)

    def test_formulas_all_n(self):
        for n in (1, 2, 3):
            cn = consts.compute_Cn(n)
            e1, e2, e3 = consts.compute_eps_ladder(n)
            assert e1 == pytest.approx(1.0 / (cn * 1000 * n * 100**n))
            assert e2 == pytest.approx(1.0 / (cn * 2000 * 2**n))
            assert e3 / e1 == pytest.approx(0.1)


class TestRhoHatChain:
    def test_endpoints_and_interleaving(self):
        for n in (1, 2, 3):
            eps2 = consts.compute_eps_ladder(n)[1]
            chain = consts.rho_hat_ladder(n, eps2)
            flat = [x for pair in chain for x in pair]
            assert flat[0] == pytest.approx(18.0 * eps2)
            assert all(a > b for a, b in zip(flat, flat[1:]))
            assert flat[-1] > 15.0 * eps2


class TestEps4:
    @pytest.mark.parametrize("n", [1, 2])
    def test_positive_and_substitution(self, n):
        eps2 = consts.compute_eps_ladder(n)[1]
        eps4 = consts.compute_eps4(n, eps2)
        assert eps4 > 0
        # direct substitution audit of the inequalities at the returned value
        assert consts.eps4_inequalities_hold(n, eps2, eps4)
        # halving preserves the inequalities (monotone region)
        assert consts.eps4_inequalities_hold(n, eps2, eps4 / 2.0)

    def test_far_larger_value_fails(self):
        eps2 = consts.compute_eps_ladder(1)[1]
        assert not consts.eps4_inequalities_hold(1, eps2, eps2)


class TestEps0:
    def _parts(self, n):
        e1, e2, e3 = consts.compute_eps_ladder(n)
        e4 = consts.compute_eps4(n, e2)
        gs = mt.gs_delta(n, e4)
        return e1, e2, e3, e4, gs

    def test_substitution_and_doubling(self):
        n = 1
        e1, e2, e3, e4, gs = self._parts(n)
        eps0, binding = consts.compute_eps0(n, e1, e2, e3, e4, gs)
        bounds = consts.eps0_bounds(n, e1, e2, e3, e4, gs)
        assert consts.eps0_constraints_hold(eps0, bounds)
        assert not consts.eps0_constraints_hold(2.0 * eps0, bounds)

    def test_binding_id_is_argmin(self):
        n = 1
        e1, e2, e3, e4, gs = self._parts(n)
        _, binding = consts.compute_eps0(n, e1, e2, e3, e4, gs)
        bounds = consts.eps0_bounds(n, e1, e2, e3, e4, gs)
        assert binding == min(bounds, key=bounds.get)

    def test_power_of_two_grid(self):
        n = 1
        e1, e2, e3, e4, gs = self._parts(n)
        eps0, _ = consts.compute_eps0(n, e1, e2, e3, e4, gs)
        assert math.log2(eps0) == pytest.approx(round(math.log2(eps0)))


class TestDLadder:
    def test_unit_rF(self):
        d1, d1p, d1pp, d2pp, d2p, d2 = consts.d_ladder(1.0)
        assert (d1, d2) == (0.10, 0.20)
        assert (d1p, d1pp, d2pp, d2p) == (0.11, 0.12, 0.18, 0.19)

    def test_proportional(self):
        a = consts.d_ladder(1.0)
        b = consts.d_ladder(0.37)
        assert np.allclose(np.array(b), 0.37 * np.array(a))


class TestComputeRF:
    def test_flat_reduces_to_min(self):
        m = mt.MetricModel.flat(2)
        assert consts.compute_rF(m, 1e-3, 0.5, math.inf) == 0.5
        assert consts.compute_rF(m, 1e-3, 10.0, 2.0) == pytest.approx(0.4)
        assert consts.compute_rF(m, 1e-3, 10.0, math.inf) == 1.0

    @pytest.mark.parametrize("lam", [0.0, math.nan, math.inf])
    def test_unusable_working_radius_rejected(self, monkeypatch, lam):
        monkeypatch.setattr(mt, "find_lambda_eps", lambda m, eps: lam)
        with pytest.raises(ValidationError, match=r"^bundle\.rF: .*lambda_eps0.*sphere:2\.0"):
            consts.compute_rF(mt.MetricModel.sphere(2.0), 1e-3, 1.0, math.inf)


class TestRStar:
    def test_zero_displacement_family_gets_cap(self):
        class Still:
            params = ["0", "1"]
            depth = 1
            dim = 2

            def displacement_batch(self, param, pts):
                return np.zeros(np.shape(pts))

        assert paper.compute_r_star(Still(), 1e-6, 1.0) == consts.R_STAR_CAP

    def test_large_displacement_family_gets_zero(self):
        class Jumpy:
            # two parameters 2^-40 apart, far below the radii of depth 1
            params = ["0" * 41, "0" * 40 + "1"]
            depth = 1
            dim = 2

            def displacement_batch(self, param, pts):
                return np.full(np.shape(pts), 0.0 if param[-1] == "0" else 10.0)

        assert paper.compute_r_star(Jumpy(), 1e-6, 1.0) == 0.0


class TestBundles:
    def test_paper_bundle_n1_valid(self):
        b = consts.paper_bundle(1)
        assert b.mode == "paper"
        assert b.Cn == 55
        consts.validate_bundle(b)

    def test_default_practical_n2(self, bundle2):
        assert bundle2.n == 2
        assert bundle2.mode == "practical"
        assert bundle2.rF == 1.0
        assert bundle2.d1 == pytest.approx(0.10)
        assert bundle2.d2 == pytest.approx(0.20)
        assert bundle2.eps0 > 0
        consts.validate_bundle(bundle2)

    def test_default_practical_rejects_other_n(self):
        with pytest.raises(ValueError):
            consts.default_practical_bundle(3)

    def test_tampered_d_ladder_rejected(self, bundle2):
        d = jsonio.bundle_to_dict(bundle2)
        d["d"][0] = d["d"][0] * 1.01
        with pytest.raises(ValidationError):
            jsonio.bundle_from_dict(d)

    def test_zero_rF_named_before_the_ladder(self, bundle2):
        d = jsonio.bundle_to_dict(bundle2)
        d["rF"], d["d"] = 0.0, [0.0] * 6
        with pytest.raises(ValidationError, match=r"rF: rF must lie in"):
            jsonio.bundle_from_dict(d)

    @pytest.mark.parametrize("change,path", [
        (lambda d: {**d, "n": 9}, "bundle: n: n must be in 1..8"),
        (lambda d: {**d, "eps": [-1e308] + d["eps"][1:]}, "bundle: eps0: must be positive"),
        (lambda d: {**d, "rho_hat": d["rho_hat"][:-1] + [[0.00017]]},
         "bundle: rho_hat: rho_hat ladder has the wrong length"),
        (lambda d: {**d, "eps": d["eps"][:4] + ["2e-9"]}, "bundle.eps[4]: expected a number"),
        (lambda d: {**d, "rF": True}, "bundle.rF: expected"),
        (lambda d: {**d, "v2": []}, "bundle.v2: expected an object"),
        (lambda d: {**d, "gs_delta": 1.4901161193847657e-09},  # the former sampled value
         "bundle: gs_delta: gs_delta does not match its formula"),
        (lambda d: {**d, "v": True}, "bundle.v: unsupported schema version True"),
        (lambda d: {**d, "r_star": float("nan")}, "bundle: r_star: r_star must be"),
        (lambda d: {**d, "r_star": 0.5}, "bundle: r_star: r_star must be"),
        (lambda d: {**d, "v2": {"1,2": float("inf")}}, "bundle: v2.1,2: v2 entry off-formula"),
        (lambda d: {**d, "v2": {**d["v2"], "1,3": 0.5}}, "bundle: v2.1,3: v2 entry off-formula"),
        (lambda d: {**d, "v2": {"2,1": 0.1}}, "bundle: v2.2,1: key must be"),
        (lambda d: {**d, "v2": {"1,2,3": 0.1}}, "bundle: v2.1,2,3: key must be"),
        # subnormal intermediates: v2_constant's ulp descent would not end
        (lambda d: {**d, "v2": {"2e-108,3e-108": 0.1}}, "bundle: v2.2e-108,3e-108: key must be"),
        (lambda d: {**d, "rho_hat": [5] + d["rho_hat"][1:]}, "bundle.rho_hat[0]: expected a list"),
        (lambda d: {**d, "d": d["d"][:5]}, "bundle.d: expected a list of 6"),
    ])
    def test_malformed_bundle_named(self, bundle2, change, path):
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}"):
            jsonio.bundle_from_dict(change(jsonio.bundle_to_dict(bundle2)))

    @pytest.mark.parametrize("n", [5, 8])
    def test_paper_constants_that_underflow_are_named(self, n):
        with pytest.raises(ValidationError, match=rf"no positive float64 eps\d .* n = {n}"):
            consts.paper_bundle(n)

    def test_paper_bundle_n4_valid(self):
        b = consts.paper_bundle(4)
        assert b.gs_delta == mt.gs_delta(4, b.eps4) > 0
        assert 0 < b.eps0 < b.gs_delta / 100
        consts.validate_bundle(b)

    # eps0 of the default practical bundle and of paper n = 1..3, the same
    # before and after gs_delta became a closed form: it does not bind
    @pytest.mark.parametrize("n,eps0", [
        (0, 1.3258247124928244e-12),
        (1, 2.3283064365386963e-10),
        (2, 4.1359030627651384e-25),
        (3, 4.176194859519056e-53),
    ])
    def test_eps0_and_binding_kept(self, bundle2, n, eps0):
        b = bundle2 if n == 0 else consts.paper_bundle(n)
        assert (b.eps0, b.rF, b.binding_eps0) == (eps0, 1.0, "lt_eps3_alignment")

    def test_tampered_rho_hat_rejected(self, bundle2):
        d = jsonio.bundle_to_dict(bundle2)
        d["rho_hat"][0][0] *= 1.0001
        with pytest.raises(ValidationError):
            jsonio.bundle_from_dict(d)

    def test_bad_practical_eps4_rejected(self):
        with pytest.raises(ValidationError):
            consts.practical_bundle(2, eps1=1e-8, eps2=1e-5, eps3=1e-5, eps4=1e-5)

    def test_bad_practical_eps0_rejected(self):
        with pytest.raises(ValidationError):
            consts.practical_bundle(2, eps1=1e-8, eps2=1e-5, eps3=1e-5,
                                    eps4=2e-9, eps0=0.1)

    def test_json_round_trip_bit_identical(self, bundle2):
        import json

        text1 = jsonio.dumps(jsonio.bundle_to_dict(bundle2))
        again = jsonio.bundle_from_dict(json.loads(text1))
        text2 = jsonio.dumps(jsonio.bundle_to_dict(again))
        assert text1 == text2
