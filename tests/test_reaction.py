"""Reaction-term evaluators and the per-capita bound checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontlab.errors import DomainError, InputError, ParameterError
from frontlab.reaction import (UNDERFLOW_CUTOFF, ReactionKind,
                               ReactionParams, allee,
                               compare_families_near_zero, eval_f, kpp,
                               log_sample_grid, verify_hypothesis_bounds,
                               weakly_monostable)

# 0, subnormals, the smallest normal, the underflow cutoff and its
# neighbours, and values at and next to 1
EDGE_VALUES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               np.nextafter(UNDERFLOW_CUTOFF, 0.0), UNDERFLOW_CUTOFF,
               np.nextafter(UNDERFLOW_CUTOFF, 1.0), 1e-299, 0.5,
               1.0 - 2.0 ** -53, 1.0]
FAMILIES = (weakly_monostable, kpp, allee)


def masked_rate(family, s):
    """The former evaluation: the rate formula gathered on the cells above
    the cutoff and scattered back into zeros (no cutoff for KPP)."""
    p = family.params
    if family.kind is ReactionKind.KPP:
        return p.r * s * (1.0 - s)
    out = np.zeros_like(s)
    live = s > UNDERFLOW_CUTOFF
    sv = s[live]
    if family.kind is ReactionKind.WEAKLY_MONOSTABLE:
        out[live] = p.r * sv * (1.0 - sv) / (1.0 - np.log(sv)) ** p.alpha
    else:
        out[live] = p.r * sv ** (p.alpha + 1.0) * (1.0 - sv)
    return out


class TestEvalF:
    def test_zero_at_endpoints_all_families(self):
        for family in (weakly_monostable(0.4), kpp(0.4), allee(0.4)):
            assert eval_f(family, 0.0) == 0.0
            assert eval_f(family, 1.0) == 0.0

    def test_weakly_monostable_midpoint(self):
        # 0.25/(1+ln 2)**0.4 evaluated with mpmath at 40 digits
        got = eval_f(weakly_monostable(0.4), 0.5)
        assert got == pytest.approx(0.20251729781491596856, rel=1e-14)

    def test_underflow_guard_exact_zero(self):
        wm = weakly_monostable(0.4)
        assert eval_f(wm, 1e-300) == 0.0
        assert eval_f(allee(0.4), 1e-300) == 0.0
        # just above the cutoff: finite, positive, far below 1e-290
        val = eval_f(wm, 1e-299)
        assert 0.0 < val < 1e-290

    def test_continuity_near_one(self):
        val = eval_f(weakly_monostable(0.4), 1.0 - 1e-12)
        assert 0.0 < val < 1e-11

    def test_domain_errors(self):
        wm = weakly_monostable(0.4)
        with pytest.raises(DomainError):
            eval_f(wm, -0.1)
        with pytest.raises(DomainError):
            eval_f(wm, 1.1)
        with pytest.raises(DomainError):
            eval_f(wm, np.array([0.5, 2.0]))

    def test_array_matches_scalar(self):
        wm = weakly_monostable(0.6, r=2.0)
        s = np.array([0.0, 1e-6, 0.3, 0.9, 1.0])
        arr = eval_f(wm, s)
        assert arr.shape == s.shape
        for i, si in enumerate(s):
            assert arr[i] == eval_f(wm, float(si))

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_positive_inside(self, s):
        assert eval_f(weakly_monostable(0.4), s) > 0.0

    @pytest.mark.parametrize("make", FAMILIES)
    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.5, 0.6, 2.0])
    def test_bitwise_equal_to_masked_formula_dense(self, make, alpha):
        s = np.concatenate([EDGE_VALUES, np.geomspace(5e-324, 1e-290, 3001),
                            np.geomspace(1e-290, 1.0, 20_001),
                            np.linspace(0.0, 1.0, 20_001)])
        family = make(alpha, r=1.3)
        assert eval_f(family, s).tobytes() == masked_rate(family, s).tobytes()

    @given(values=st.lists(st.sampled_from(EDGE_VALUES)
                           | st.floats(min_value=0.0, max_value=1.0),
                           min_size=1, max_size=70),
           make=st.sampled_from(FAMILIES),
           alpha=st.sampled_from([0.4, 0.5]) | st.floats(min_value=0.05, max_value=3.0),
           r=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=300)
    def test_bitwise_equal_to_masked_formula(self, values, make, alpha, r):
        s = np.array(values)
        family = make(alpha, r=r)
        assert eval_f(family, s).tobytes() == masked_rate(family, s).tobytes()
        assert eval_f(family, values[0]) == masked_rate(family, s[:1])[0]

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            ReactionParams(r=0.0, alpha=0.4)
        with pytest.raises(ParameterError):
            ReactionParams(r=1.0, alpha=0.0)


class TestPercapitaDefectIdentity:
    """The upper bound exceeds f by exactly r*s**2/(1+|ln s|)**alpha.

    Tested in the cancellation-free arrangement f + r*s**2/d == r*s/d,
    which is the same identity and stays within 2 ulp across (0, 1);
    the subtractive form loses all precision for small s.
    """

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    @example(0.04556700040151744)  # 3 ulp when d comes from libm
    @settings(max_examples=300)
    def test_defect_two_ulp(self, s):
        r, alpha = 1.0, 0.4
        # numpy's array log and pow, as in eval_f: libm's scalar log and pow
        # differ from numpy's SIMD loops by an ulp on some inputs
        d = ((1.0 - np.log(np.array([s]))) ** alpha)[0]
        upper = r * s / d
        lhs = eval_f(weakly_monostable(alpha), s) + r * s * s / d
        assert abs(lhs - upper) <= 2.0 * np.spacing(upper)

    def test_defect_dense_grid(self):
        r, alpha = 1.0, 0.4
        s = np.geomspace(1e-12, 1.0 - 1e-12, 100_001)
        d = (1.0 - np.log(s)) ** alpha
        upper = r * s / d
        lhs = eval_f(weakly_monostable(alpha), s) + r * s * s / d
        assert np.all(np.abs(lhs - upper) <= 2.0 * np.spacing(upper))


class TestKppSymmetry:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric(self, s):
        family = kpp(0.4, r=1.7)
        assert eval_f(family, s) == pytest.approx(eval_f(family, 1.0 - s),
                                                  rel=1e-12, abs=1e-15)

    def test_symmetric_exact_on_dyadics(self):
        family = kpp(0.4)
        for k in range(9):
            s = k / 8.0
            assert eval_f(family, s) == eval_f(family, 1.0 - s)


class TestAlphaMonotonicity:
    def test_larger_alpha_smaller_rate(self):
        s = np.linspace(1e-6, 0.99, 500)
        low = eval_f(weakly_monostable(0.2), s)
        high = eval_f(weakly_monostable(0.6), s)
        assert np.all(high < low)


class TestVerifyHypothesisBounds:
    def test_default_family_passes(self):
        params = ReactionParams(r=1.0, alpha=0.4)
        report = verify_hypothesis_bounds(params, weakly_monostable(0.4),
                                          log_sample_grid(10_000))
        assert report.passed
        assert report.n_checked == 10_000
        assert report.upper_violation is None

    def test_double_rate_fails_near_one(self):
        params = ReactionParams(r=1.0, alpha=0.4)
        report = verify_hypothesis_bounds(params, lambda s: 2.0 * s,
                                          log_sample_grid(10_000))
        assert not report.upper_ok
        # worst excess sits at the largest sample, where |ln s| ~ 0
        assert report.upper_violation.s == pytest.approx(1.0 - 1e-12, rel=1e-6)
        assert report.upper_violation.f_value > report.upper_violation.bound

    def test_half_rate_fails_lower_bound(self):
        params = ReactionParams(r=1.0, alpha=0.4)
        family = weakly_monostable(0.4)
        report = verify_hypothesis_bounds(params, lambda s: 0.5 * family(s),
                                          log_sample_grid(10_000))
        assert report.upper_ok and not report.lower_ok
        assert report.lower_violation.f_value < report.lower_violation.bound

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            verify_hypothesis_bounds(ReactionParams(1.0, 0.4), lambda s: s, [])

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            verify_hypothesis_bounds(ReactionParams(1.0, 0.4), lambda s: s, [0.5, 1.0])


class TestCompareFamilies:
    def test_tiny_density_values(self):
        # (1 - 1e-6)/(1 + 6 ln 10)**0.5 and sqrt(1e-6)*(1 - 1e-6), mpmath 40 digits
        comp = compare_families_near_zero(ReactionParams(r=1.0, alpha=0.5),
                                          np.array([1e-6]))
        assert comp.percapita_kpp[0] == pytest.approx(1.0 - 1e-6, rel=1e-14)
        assert comp.percapita_weak[0] == pytest.approx(0.25980126091985414, rel=1e-13)
        assert comp.percapita_allee[0] == pytest.approx(9.99999e-4, rel=1e-13)
        assert comp.ordering_ok

    def test_ordering_on_range(self):
        s = np.geomspace(1e-10, 0.5, 400)
        comp = compare_families_near_zero(ReactionParams(r=1.3, alpha=0.7), s)
        assert comp.ordering_ok
        assert np.all(comp.percapita_kpp > comp.percapita_weak)
        assert np.all(comp.percapita_weak > comp.percapita_allee)

    def test_at_one_all_zero(self):
        comp = compare_families_near_zero(ReactionParams(r=1.0, alpha=0.5),
                                          np.array([1.0]))
        assert comp.f_kpp[0] == comp.f_weak[0] == comp.f_allee[0] == 0.0

    def test_rows_tabular(self):
        comp = compare_families_near_zero(ReactionParams(r=1.0, alpha=0.5),
                                          np.array([0.1, 0.2]))
        rows = list(comp.rows())
        assert len(rows) == 2
        assert len(rows[0]) == 7
