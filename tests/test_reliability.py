"""Reliability models: polynomial forms, the Markov chain, crosspoints."""

import numpy as np
import pytest

from votingfarm.core import ValidationError
from votingfarm.reliability import (
    DomainError,
    LIVE_STATES,
    MarkovModel,
    NoSignChange,
    STATES,
    _markov_solve_ivp,
    closed_forms,
    crosspoint,
    curve_export,
    live_probability,
    markov_reliability,
    markov_solve,
    r_tmr,
    r_tmr_1spare,
    simplex,
)

# Monte Carlo cross-check, frozen at design time: simulating 10**6
# three-component systems at R=0.9 and voting 2-of-3 gave 0.972076,
# against the polynomial's 0.972.
R_TMR_09 = 0.972


class TestPolynomials:
    def test_endpoints_and_crossover(self):
        assert r_tmr(0.0) == 0.0
        assert r_tmr(1.0) == 1.0
        assert r_tmr(0.5) == 0.5

    def test_value_at_09(self):
        assert r_tmr(0.9) == pytest.approx(R_TMR_09, abs=1e-12)

    def test_vectorized(self):
        grid = np.linspace(0, 1, 11)
        out = r_tmr(grid)
        assert out.shape == grid.shape
        assert np.allclose(out, 3 * grid**2 - 2 * grid**3)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, [0.2, 1.01]])
    def test_domain_checked(self, bad):
        with pytest.raises(DomainError):
            r_tmr(bad)
        with pytest.raises(DomainError):
            r_tmr_1spare(0.5, bad)
        with pytest.raises(DomainError):
            r_tmr_1spare(bad, 0.5)

    def test_spare_with_zero_coverage_adds_nothing(self):
        grid = np.linspace(0, 1, 101)
        assert np.allclose(r_tmr_1spare(0.0, grid), r_tmr(grid), atol=1e-15)

    def test_spare_with_full_coverage_at_half(self):
        # (-3 + 6) * (0.5 * 0.5)^2 + 0.5 = 3/16 + 1/2
        assert r_tmr_1spare(1.0, 0.5) == pytest.approx(0.6875, abs=1e-15)

    def test_spare_never_hurts_and_helps_strictly_inside(self):
        C = np.linspace(0, 1, 101)[:, None]
        R = np.linspace(0, 1, 101)[None, :]
        delta = r_tmr_1spare(C, R) - r_tmr(R)
        assert delta.min() >= -1e-15
        interior = delta[1:, 1:-1]  # C > 0, 0 < R < 1
        assert interior.min() > 0.0

    def test_gain_grows_with_coverage(self):
        for R in (0.1, 0.5, 0.9):
            values = r_tmr_1spare(np.linspace(0, 1, 50), R)
            assert np.all(np.diff(values) >= -1e-15)


class TestMarkov:
    def test_model_validation(self):
        with pytest.raises(DomainError):
            MarkovModel(lam=0.0, C=0.5)
        with pytest.raises(DomainError):
            MarkovModel(lam=1.0, C=1.5)

    def test_generator_columns_sum_to_zero(self):
        A = MarkovModel(lam=0.7, C=0.3).generator()
        assert A.shape == (9, 9)
        assert np.allclose(A.sum(axis=0), 0.0, atol=1e-15)

    def test_initial_state_is_all_up(self):
        model = MarkovModel(lam=1.0, C=0.5)
        p = markov_solve(model, [0.0])
        assert p.shape == (1, len(STATES))
        assert p[0, STATES.index("310")] == pytest.approx(1.0, abs=1e-12)
        assert abs(p[0].sum() - 1.0) < 1e-12

    def test_probability_is_conserved(self):
        model = MarkovModel(lam=0.8, C=0.6)
        p = markov_solve(model, np.linspace(0, 6, 40))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert p.min() > -1e-12

    def test_ivp_and_expm_agree(self):
        model = MarkovModel(lam=1.3, C=0.25)
        t = np.linspace(0, 4, 15)
        a = _markov_solve_ivp(model, t)
        b = markov_solve(model, t)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_grid_validation(self):
        model = MarkovModel(lam=1.0, C=0.5)
        with pytest.raises(ValidationError):
            markov_solve(model, [1.0, 0.5])
        with pytest.raises(ValidationError):
            markov_solve(model, [])

    @pytest.mark.parametrize("lam,C", [(1.0, 0.0), (1.0, 1.0), (0.5, 0.3), (2.0, 0.9)])
    def test_closed_forms_match_the_numeric_chain(self, lam, C):
        t = np.linspace(0.0, 5.0 / lam, 20)
        numeric = markov_solve(MarkovModel(lam=lam, C=C), t)
        forms = closed_forms(lam, C, t)
        assert set(forms) == set(LIVE_STATES)
        for name, values in forms.items():
            got = numeric[:, STATES.index(name)]
            assert np.max(np.abs(got - values)) < 1e-9, name

    def test_live_probability_matches_closed_reliability(self):
        lam, C = 1.1, 0.45
        t = np.linspace(0, 3, 12)
        p = markov_solve(MarkovModel(lam=lam, C=C), t)
        assert np.max(np.abs(live_probability(p) - markov_reliability(lam, C, t))) < 1e-9

    def test_chain_reliability_is_the_spare_polynomial_in_exp(self):
        for lam in (0.5, 1.0, 2.0):
            for C in (0.0, 0.3, 1.0):
                t = np.linspace(0, 4.0 / lam, 25)
                lhs = markov_reliability(lam, C, t)
                rhs = r_tmr_1spare(C, np.exp(-lam * t))
                assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestPropagator:
    """The default solver against the DOP853 path and the closed forms."""

    GRIDS = {
        "non-uniform": (0.9, 0.4, np.array([0.0, 0.01, 0.05, 0.3, 0.31, 1.2, 2.0, 4.5])),
        "repeated-times": (1.3, 0.7, np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 2.5, 2.5])),
        "first-time-above-zero": (0.6, 0.2, np.array([1.5, 2.0, 2.5, 5.0])),
        "single-point": (2.0, 0.9, np.array([1.75])),
    }

    @staticmethod
    def _check(lam, C, t):
        model = MarkovModel(lam=lam, C=C)
        p = markov_solve(model, t)
        assert p.shape == (len(t), len(STATES))
        assert np.max(np.abs(p - _markov_solve_ivp(model, t))) < 1e-9
        for name, values in closed_forms(lam, C, t).items():
            got = p[:, STATES.index(name)]
            assert np.max(np.abs(got - values)) < 1e-13, name

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid(self, name):
        self._check(*self.GRIDS[name])

    def test_models_grid(self):
        t = np.linspace(0.0, 4000.0, 50)
        for C in np.linspace(0.0, 1.0, 25):
            self._check(1e-3, float(C), t)

    def test_a_zero_step_repeats_the_row_exactly(self):
        lam, C, t = self.GRIDS["repeated-times"]
        model = MarkovModel(lam=lam, C=C)
        p = markov_solve(model, t)
        for i in np.flatnonzero(np.diff(t) == 0.0):
            assert np.array_equal(p[i], p[i + 1])
        assert np.array_equal(p[0], model.initial)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, [0.5, np.nan]])
    def test_unit_check_rejects_nan(self, bad):
        with pytest.raises(DomainError):
            r_tmr(bad)
        with pytest.raises(DomainError):
            r_tmr_1spare(bad, 0.5)
        with pytest.raises(DomainError):
            r_tmr_1spare(0.5, bad)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
    def test_model_needs_a_finite_positive_rate(self, lam):
        with pytest.raises(DomainError):
            MarkovModel(lam=lam, C=0.5)

    def test_model_rejects_nan_coverage(self):
        with pytest.raises(DomainError):
            MarkovModel(lam=1.0, C=np.nan)

    @pytest.mark.parametrize("solve", [markov_solve, _markov_solve_ivp], ids=["expm", "ivp"])
    @pytest.mark.parametrize(
        "grid",
        [[0.0, np.nan], [np.nan], [0.0, np.inf], [-1.0, 0.0], [[0.0, 1.0]]],
        ids=["nan-after-zero", "nan-alone", "inf", "negative", "two-dimensional"],
    )
    def test_solver_rejects_bad_times(self, grid, solve):
        with pytest.raises(ValidationError):
            solve(MarkovModel(lam=1.0, C=0.5), grid)


class TestCrosspoints:
    def test_voted_triple_crosses_simplex_at_half(self):
        x = crosspoint(r_tmr, simplex, (0.2, 0.8))
        assert x == pytest.approx(0.5, abs=1e-9)

    def test_one_spare_full_coverage_crosses_lower(self):
        f = lambda R: r_tmr_1spare(1.0, R)
        x = crosspoint(f, simplex, (0.05, 0.8))
        assert x == pytest.approx(0.232408, abs=1e-6)

    def test_exact_bracket_endpoint_is_returned(self):
        assert crosspoint(r_tmr, simplex, (0.5, 0.8)) == 0.5

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChange):
            crosspoint(r_tmr, simplex, (0.6, 0.9))


class TestCurveExport:
    def test_layout_and_delta_sign(self):
        text = curve_export([0.0, 0.5, 1.0])
        blocks = [b for b in text.split("# C=") if b.strip()]
        assert len(blocks) == 3
        lines = text.strip().split("\n")
        assert lines.count("R,R_tmr,R_tmr1spare,delta") == 3
        data = [ln for ln in lines if ln[0].isdigit()]
        assert len(data) == 3 * 101
        for ln in data:
            r, base, spare, delta = ln.split(",")
            # columns are printed at 9 decimals, so recomputing the
            # difference from them can be off by one ulp of the format
            assert float(delta) == pytest.approx(float(spare) - float(base), abs=2e-9)
            assert float(delta) >= -1e-9

    @pytest.mark.parametrize("step", [0.0, -0.01, 1.5, np.nan, 0.005, 1e-9])
    def test_step_outside_the_unit_interval_is_rejected(self, step):
        with pytest.raises(ValidationError):
            curve_export([0.5], step=step)

    def test_step_of_one_gives_the_endpoints(self):
        data = [ln for ln in curve_export([0.5], step=1.0).split("\n") if ln[:1].isdigit()]
        assert [ln.split(",")[0] for ln in data] == ["0.00", "1.00"]

    def test_rows_cover_the_unit_interval(self):
        text = curve_export([0.2])
        data = [ln for ln in text.strip().split("\n") if ln[0].isdigit()]
        assert data[0].startswith("0.00,")
        assert data[-1].startswith("1.00,")
