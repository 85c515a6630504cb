"""The reaction rate and the per-capita bound check of ``verify hypothesis``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontlab import verify
from frontlab.errors import InputError
from frontlab.reaction import (UNDERFLOW_CUTOFF, ReactionParams, eval_f,
                               weakly_monostable)

# 0, subnormals, the smallest normal, the underflow cutoff and its
# neighbours, and values at and next to 1
EDGE_VALUES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               np.nextafter(UNDERFLOW_CUTOFF, 0.0), UNDERFLOW_CUTOFF,
               np.nextafter(UNDERFLOW_CUTOFF, 1.0), 1e-299, 0.5,
               1.0 - 2.0 ** -53, 1.0]
# the one reaction; a parameter so that the test ids name it
FAMILIES = (weakly_monostable,)


def masked_rate(family, s):
    """The former evaluation: the rate formula gathered on the cells above
    the cutoff and scattered back into zeros."""
    p = family.params
    out = np.zeros_like(s)
    live = s > UNDERFLOW_CUTOFF
    sv = s[live]
    out[live] = p.r * sv * (1.0 - sv) / (1.0 - np.log(sv)) ** p.alpha
    return out


class TestEvalF:
    def test_zero_at_endpoints_all_families(self):
        assert eval_f(weakly_monostable(0.4), 0.0) == 0.0
        assert eval_f(weakly_monostable(0.4), 1.0) == 0.0

    def test_weakly_monostable_midpoint(self):
        # 0.25/(1+ln 2)**0.4 evaluated with mpmath at 40 digits
        got = eval_f(weakly_monostable(0.4), 0.5)
        assert got == pytest.approx(0.20251729781491596856, rel=1e-14)

    def test_tiny_density_percapita(self):
        # (1 - 1e-6)/(1 + 6 ln 10)**0.5, mpmath at 40 digits
        got = eval_f(weakly_monostable(0.5), 1e-6) / 1e-6
        assert got == pytest.approx(0.25980126091985414, rel=1e-13)

    def test_underflow_guard_exact_zero(self):
        wm = weakly_monostable(0.4)
        assert eval_f(wm, 1e-300) == 0.0
        # just above the cutoff: finite, positive, far below 1e-290
        val = eval_f(wm, 1e-299)
        assert 0.0 < val < 1e-290

    def test_continuity_near_one(self):
        val = eval_f(weakly_monostable(0.4), 1.0 - 1e-12)
        assert 0.0 < val < 1e-11

    def test_domain_errors(self):
        wm = weakly_monostable(0.4)
        with pytest.raises(InputError, match=r"state value -0.1 outside \[0, 1\]"):
            eval_f(wm, -0.1)
        with pytest.raises(InputError, match=r"state value 1.1 outside \[0, 1\]"):
            eval_f(wm, 1.1)
        with pytest.raises(InputError, match=r"state value 2.0 outside \[0, 1\]"):
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
           alpha=st.sampled_from([0.4, 0.5]) | st.floats(min_value=0.05, max_value=3.0),
           r=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=300)
    def test_bitwise_equal_to_masked_formula(self, values, alpha, r):
        s = np.array(values)
        family = weakly_monostable(alpha, r=r)
        assert eval_f(family, s).tobytes() == masked_rate(family, s).tobytes()
        assert eval_f(family, values[0]) == masked_rate(family, s[:1])[0]

    @pytest.mark.parametrize("make", FAMILIES)
    @pytest.mark.parametrize("low", [0.0, 5e-324, 1e-310, UNDERFLOW_CUTOFF,
                                     np.nextafter(UNDERFLOW_CUTOFF, 1.0), 1e-250, 0.3])
    def test_known_minimum_gives_the_same_bits(self, make, low):
        # lo at or below the cutoff zeroes the cells there; above it none are
        s = np.concatenate([np.linspace(1.0, 0.3, 2001), np.geomspace(0.3, 1e-250, 2001),
                            np.geomspace(1e-299, 1e-300, 5), [low]])
        s = s[s >= low]
        family = make(0.4, r=1.3)
        assert eval_f(family, s, low).tobytes() == eval_f(family, s).tobytes()

    @given(values=st.lists(st.sampled_from(EDGE_VALUES)
                           | st.floats(min_value=0.0, max_value=1.0),
                           min_size=1, max_size=70),
           alpha=st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=200)
    def test_known_minimum_gives_the_same_bits_anywhere(self, values, alpha):
        s = np.array(values)
        family = weakly_monostable(alpha)
        lo = float(s.min())
        assert eval_f(family, s, lo).tobytes() == eval_f(family, s).tobytes()

    @pytest.mark.parametrize("low", [np.nextafter(UNDERFLOW_CUTOFF, 1.0), 1e-250, 0.3])
    def test_log_above_the_cutoff_gives_the_same_bits(self, low):
        # a minimum above the cutoff takes the log of s itself; lo = 0.0, a
        # loose but true bound, takes it of s raised to the cutoff
        s = np.concatenate([np.linspace(1.0, 0.3, 2001), np.geomspace(0.3, low, 2001)])
        family = weakly_monostable(0.4, r=1.3)
        direct = eval_f(family, s, float(s.min()))
        assert direct.tobytes() == eval_f(family, s).tobytes()
        assert direct.tobytes() == eval_f(family, s, 0.0).tobytes()

    def test_params_validation(self):
        with pytest.raises(InputError, match="reaction rate r must be finite and > 0"):
            ReactionParams(r=0.0, alpha=0.4)
        with pytest.raises(InputError, match="exponent alpha must be finite and > 0"):
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


class TestAlphaMonotonicity:
    def test_larger_alpha_smaller_rate(self):
        s = np.linspace(1e-6, 0.99, 500)
        low = eval_f(weakly_monostable(0.2), s)
        high = eval_f(weakly_monostable(0.6), s)
        assert np.all(high < low)


class TestVerifyHypothesisBounds:
    """``verify hypothesis`` with its rate swapped for a wrong one."""

    @staticmethod
    def outcomes():
        return [(c.passed, c.measured) for c in verify.verify_hypothesis()]

    def test_default_family_passes(self):
        checks = verify.verify_hypothesis()
        assert [(c.passed, c.measured) for c in checks] == [(True, 0.0)] * 3
        assert all(c.detail == "10000 samples" for c in checks)

    def test_double_rate_fails_near_one(self, monkeypatch):
        # 2s is above the upper bound r*s/(1+|ln s|)**alpha everywhere, and
        # so above the lower one: only the upper bound fails
        monkeypatch.setattr(verify, "eval_f", lambda family, s: 2.0 * s)
        assert self.outcomes() == [(False, 1.0)] * 3
        # the 10 samples nearest 1, where |ln s| ~ 0, are enough to fail it
        monkeypatch.setattr(verify, "eval_f", lambda family, s: np.where(
            s >= s[-10], 2.0 * s, eval_f(family, s)))
        assert self.outcomes() == [(False, 1.0)] * 3

    def test_half_rate_fails_lower_bound(self, monkeypatch):
        # half the rate is below the lower bound, which the rate meets
        # exactly, and below the upper one: only the lower bound fails
        monkeypatch.setattr(verify, "eval_f", lambda family, s: 0.5 * eval_f(family, s))
        assert self.outcomes() == [(False, 1.0)] * 3

    def test_each_failed_bound_counts_once(self, monkeypatch):
        # both bounds failing, each on many samples, count two
        monkeypatch.setattr(verify, "eval_f", lambda family, s: np.where(
            s > 0.5, 2.0 * s, 0.5 * eval_f(family, s)))
        assert self.outcomes() == [(False, 2.0)] * 3
