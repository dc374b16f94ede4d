"""Group-lasso solver tests against closed-form and least-squares oracles and
the ISTA-only reference solver, and the vectorized group operations against
their per-group references."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echospread import lasso
from echospread.lasso import (
    ConvergenceError,
    LassoConfig,
    cv_select_lambda,
    fit_cv,
    fit_group_lasso,
    kkt_residual_from_fit,
    lambda_grid,
    lambda_max,
    pct_change,
    report_coefficients,
    select_best_lambda,
    write_cv_curve_csv,
    write_regress_csv,
)
from echospread.lasso import (
    _check_groups,
    _fold_order,
    _kkt_residual,
    _penalty,
    _prox,
    _solve_std,
)
from helpers import (
    reference_kkt_residual,
    reference_penalty,
    reference_prox,
    reference_solve_std,
)


def random_problem(seed, n=60, p=8, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    y = 1.5 + X @ beta + noise * rng.normal(size=n)
    return X, y


SINGLES_8 = tuple((j,) for j in range(8))


def orthonormal_design(seed, n=50, p=6):
    """Columns are zero-mean and satisfy X'X/n = I exactly (up to float)."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return q * math.sqrt(n)


class TestLeastSquaresLimit:
    def test_zero_penalty_matches_ols(self):
        X, y = random_problem(0)
        fit = fit_group_lasso(X, y, SINGLES_8, 0.0)
        aug = np.column_stack([np.ones(len(y)), X])
        coef, *_ = np.linalg.lstsq(aug, y, rcond=None)
        np.testing.assert_allclose(fit.intercept, coef[0], atol=1e-6)
        np.testing.assert_allclose(fit.beta, coef[1:], atol=1e-6)

    def test_grouped_zero_penalty(self):
        X, y = random_problem(2)
        groups = ((0, 1, 2), (3, 4), (5, 6, 7))
        fit = fit_group_lasso(X, y, groups, 0.0)
        aug = np.column_stack([np.ones(len(y)), X])
        coef, *_ = np.linalg.lstsq(aug, y, rcond=None)
        np.testing.assert_allclose(fit.beta, coef[1:], atol=1e-6)


class TestLambdaMax:
    def test_at_lambda_max_all_zero_exactly(self):
        X, y = random_problem(3)
        lam = lambda_max(X, y, SINGLES_8)
        fit = fit_group_lasso(X, y, SINGLES_8, lam)
        assert np.all(fit.beta == 0.0)
        assert fit.active_groups == ()
        np.testing.assert_allclose(fit.intercept, y.mean(), rtol=1e-12)

    def test_above_lambda_max_all_zero(self):
        X, y = random_problem(4)
        lam = lambda_max(X, y, SINGLES_8)
        fit = fit_group_lasso(X, y, SINGLES_8, lam * 1.5)
        assert np.all(fit.beta == 0.0)

    def test_just_below_lambda_max_activates(self):
        X, y = random_problem(5)
        lam = lambda_max(X, y, SINGLES_8)
        fit = fit_group_lasso(X, y, SINGLES_8, lam * 0.99)
        assert len(fit.active_groups) >= 1

    def test_grid_is_decreasing_geometric(self):
        grid = lambda_grid(2.0, 100)
        assert len(grid) == 100
        assert np.all(np.diff(grid) < 0)
        np.testing.assert_allclose(grid[0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(grid[-1], 2.0e-4, rtol=1e-9)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


class TestOrthonormalClosedForm:
    """With X'X/n = I the minimizer is a block soft-threshold of X'y/n."""

    def closed_form(self, X, y, groups, lam):
        n = len(y)
        c = X.T @ (y - y.mean()) / n
        beta = np.zeros(X.shape[1])
        for g in groups:
            idx = list(g)
            norm = np.linalg.norm(c[idx])
            thr = lam * math.sqrt(len(idx))
            if norm > thr:
                beta[idx] = (1.0 - thr / norm) * c[idx]
        return beta

    @pytest.mark.parametrize("lam_frac", [0.05, 0.3, 0.7, 0.95])
    def test_matches_block_soft_threshold(self, lam_frac):
        X = orthonormal_design(6)
        rng = np.random.default_rng(7)
        y = X @ rng.normal(size=6) + 0.3 * rng.normal(size=50)
        groups = ((0, 1, 2), (3, 4), (5,))
        lam = lam_frac * lambda_max(X, y, groups)
        fit = fit_group_lasso(X, y, groups, lam)
        np.testing.assert_allclose(
            fit.beta, self.closed_form(X, y, groups, lam), atol=1e-6
        )

    def test_singleton_groups_scalar_soft_threshold(self):
        X = orthonormal_design(8, p=4)
        rng = np.random.default_rng(9)
        y = X @ np.array([1.0, -0.5, 0.02, 0.0]) + 0.1 * rng.normal(size=50)
        groups = tuple((j,) for j in range(4))
        lam = 0.4 * lambda_max(X, y, groups)
        fit = fit_group_lasso(X, y, groups, lam)
        np.testing.assert_allclose(
            fit.beta, self.closed_form(X, y, groups, lam), atol=1e-6
        )


class TestKktCertificates:
    @pytest.mark.parametrize("seed", range(8))
    def test_residual_small_across_path(self, seed):
        X, y = random_problem(seed, n=80, p=10)
        groups = ((0, 1, 2), (3, 4), (5,), (6, 7, 8, 9))
        lam_top = lambda_max(X, y, groups)
        for frac in (0.9, 0.5, 0.1, 0.01):
            fit = fit_group_lasso(X, y, groups, frac * lam_top)
            assert kkt_residual_from_fit(X, y, groups, fit) <= 1e-6

    def test_residual_small_with_correlated_design(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(100, 3))
        X = np.column_stack([base, base + 0.05 * rng.normal(size=(100, 3))])
        y = X @ np.array([1.0, 0, 0, -1.0, 0, 0]) + 0.2 * rng.normal(size=100)
        groups = ((0, 3), (1, 4), (2, 5))
        lam = 0.1 * lambda_max(X, y, groups)
        fit = fit_group_lasso(X, y, groups, lam)
        assert kkt_residual_from_fit(X, y, groups, fit) <= 1e-6

    def test_objective_nondecreasing_in_penalty(self):
        X, y = random_problem(11)
        lam_top = lambda_max(X, y, SINGLES_8)
        objs = [
            fit_group_lasso(X, y, SINGLES_8, f * lam_top).objective
            for f in (0.01, 0.1, 0.3, 0.6, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(objs, objs[1:]))


@st.composite
def small_problems(draw):
    """A small regression with singletons and blocks, full rank or with a
    null direction: a duplicated column, an anti-collinear pair, or a full
    block of indicators, which sum to the intercept."""
    kind = draw(st.sampled_from(("full", "duplicate", "anticollinear", "indicators")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(15, 40))
    p = draw(st.integers(2, 5))
    X = rng.normal(size=(n, p))
    groups = [(0, 1)] if draw(st.booleans()) else [(0,), (1,)]
    groups += [(j,) for j in range(2, p)]
    if kind == "duplicate":
        X = np.column_stack([X, X[:, 0]])
        groups.append((p,))
    elif kind == "anticollinear":
        X = np.column_stack([X, -X[:, p - 1]])
        groups.append((p,))
    elif kind == "indicators":
        k = draw(st.integers(2, 4))
        X = np.column_stack([X, np.eye(k)[np.arange(n) % k]])
        groups.append(tuple(range(p, p + k)))
    beta = rng.normal(size=X.shape[1]) * (rng.random(X.shape[1]) < 0.6)
    y = 1.0 + X @ beta + 0.5 * rng.normal(size=n)
    return X, y, tuple(groups)


def with_reference_solver():
    return mock.patch.object(lasso, "_solve_std", reference_solve_std)


class TestAgainstIstaReference:
    """The Newton finish must land where ISTA alone did: the same fitted
    values (the coefficients need not be unique on a rank-deficient design),
    no worse an objective, a certified residual and the same CV choice.
    Where ISTA alone runs out of iterations there is nothing to compare, and
    the finished solve must still certify."""

    @given(small_problems(), st.sampled_from((0.6, 0.2, 0.03, 0.002)))
    @settings(max_examples=80, deadline=None)
    def test_fit_matches_reference(self, problem, lam_frac):
        X, y, groups = problem
        lam = lam_frac * lambda_max(X, y, groups)
        fit = fit_group_lasso(X, y, groups, lam)
        assert kkt_residual_from_fit(X, y, groups, fit) <= lasso.KKT_TOL
        try:
            with with_reference_solver():
                ref = fit_group_lasso(X, y, groups, lam)
        except ConvergenceError:
            return
        np.testing.assert_allclose(
            fit.intercept + X @ fit.beta, ref.intercept + X @ ref.beta, rtol=0, atol=1e-6
        )
        assert fit.objective <= ref.objective + 1e-9

    @given(small_problems())
    @settings(max_examples=40, deadline=None)
    def test_cv_selects_reference_lambda(self, problem):
        """The same lambda, unless two grid points tie on the reference's own
        curve closer than its path solves (KKT 1e-6) can tell apart: one of
        500 drawn problems had such a tie, 6.3e-8 relative."""
        X, y, groups = problem
        cfg = LassoConfig(lambda_grid=12, folds=3)
        lam, _ = cv_select_lambda(X, y, groups, cfg)
        try:
            with with_reference_solver():
                ref_lam, ref_curve = cv_select_lambda(X, y, groups, cfg)
        except ConvergenceError:
            return
        ref_err = dict(ref_curve)
        assert lam == ref_lam or ref_err[lam] <= ref_err[ref_lam] * (1 + 1e-5)


class TestNewtonFallback:
    """A rejected Newton candidate leaves ISTA running to a certified answer.

    With G = [[1, .9], [.9, 1]], c = (1, .5) and lam = .1 the optimum has
    both coefficients active with signs (+, -). From (1, 1) the first iterate
    has signs (+, +), on which Newton flips the second sign; from (0, 1) it
    has support {1} only, whose stationary point (0, .4) violates the first
    coordinate's optimality condition."""

    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    c = np.array([1.0, 0.5])
    lam = 0.1

    @pytest.mark.parametrize("beta0, first", [((1.0, 1.0), None), ((0.0, 1.0), (0.0, 0.4))])
    def test_rejected_candidate_falls_back_to_ista(self, beta0, first):
        layout = _check_groups(((0,), (1,)), 2)
        newton_finish = lasso._newton_finish
        seen = []

        def spy(*args):
            seen.append(newton_finish(*args))
            return seen[-1]

        # tol=1 lets every new support reach the Newton finish.
        with mock.patch.object(lasso, "_newton_finish", spy):
            beta, _, n_iter = _solve_std(
                self.G, self.c, self.lam, layout, np.array(beta0), 1.0, 100, 1e-10
            )
        if first is None:
            assert seen[0] is None
        else:
            np.testing.assert_allclose(seen[0], first, atol=1e-9)
        assert len(seen) >= 2 and n_iter >= 2
        exact = np.linalg.solve(self.G, self.c - self.lam * np.array([1.0, -1.0]))
        np.testing.assert_allclose(beta, exact, rtol=1e-9)
        assert _kkt_residual(self.G @ beta, self.c, beta, self.lam, layout) <= 1e-10

    def test_certified_candidate_above_the_iterate_is_rejected(self):
        """A candidate within kkt_tol whose objective is above the current
        iterate's is refused, so the objective stays non-increasing: on
        G = diag(3, 3e-4) with optimum (1, 1), the first iterate is off by
        2.5e-3 along the steep axis (residual 7.5e-3, objective 9.4e-6 above
        the optimum), and (1, 4) is off by 3 along the flat one (residual
        9e-4, objective 1.35e-3 above)."""
        G = np.diag([3.0, 3e-4])
        c = G @ np.ones(2) + self.lam
        layout = _check_groups(((0,), (1,)), 2)
        bad = np.array([1.0, 4.0])
        bad_obj = 0.5 * bad @ G @ bad - c @ bad + _penalty(bad, self.lam, layout)
        assert _kkt_residual(G @ bad, c, bad, self.lam, layout) <= 1e-3
        with mock.patch.object(lasso, "_newton_finish", lambda *args: bad.copy()):
            beta, obj, n_iter = _solve_std(
                G, c, self.lam, layout, np.array([1.01, 1.0]), 1.0, 100, 1e-3
            )
        assert n_iter >= 2 and obj < bad_obj
        assert _kkt_residual(G @ beta, c, beta, self.lam, layout) <= 1e-3


class TestInvariances:
    def test_row_permutation(self):
        X, y = random_problem(12)
        lam = 0.2 * lambda_max(X, y, SINGLES_8)
        fit = fit_group_lasso(X, y, SINGLES_8, lam)
        perm = np.random.default_rng(13).permutation(len(y))
        fit_p = fit_group_lasso(X[perm], y[perm], SINGLES_8, lam)
        np.testing.assert_allclose(fit_p.beta, fit.beta, atol=1e-9)
        np.testing.assert_allclose(fit_p.intercept, fit.intercept, atol=1e-9)

    def test_response_shift_moves_intercept_only(self):
        X, y = random_problem(14)
        lam = 0.2 * lambda_max(X, y, SINGLES_8)
        fit = fit_group_lasso(X, y, SINGLES_8, lam)
        fit_s = fit_group_lasso(X, y + 7.0, SINGLES_8, lam)
        np.testing.assert_allclose(fit_s.beta, fit.beta, atol=1e-9)
        np.testing.assert_allclose(fit_s.intercept, fit.intercept + 7.0, atol=1e-9)

    def test_column_shift_preserves_slopes(self):
        X, y = random_problem(15)
        lam = 0.2 * lambda_max(X, y, SINGLES_8)
        shift = np.arange(8, dtype=float)
        fit = fit_group_lasso(X, y, SINGLES_8, lam)
        fit_s = fit_group_lasso(X + shift, y, SINGLES_8, lam)
        np.testing.assert_allclose(fit_s.beta, fit.beta, atol=1e-9)


class TestValidation:
    def test_overlapping_groups_rejected(self):
        X, y = random_problem(16)
        with pytest.raises(ValueError, match="overlap"):
            fit_group_lasso(X, y, ((0, 1), (1, 2), (3, 4, 5, 6, 7)), 0.1)

    def test_noncovering_groups_rejected(self):
        X, y = random_problem(17)
        with pytest.raises(ValueError, match="cover"):
            fit_group_lasso(X, y, ((0, 1), (2, 3)), 0.1)

    def test_negative_lambda_rejected(self):
        X, y = random_problem(18)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_group_lasso(X, y, SINGLES_8, -0.5)

    def test_nonconvergence_carries_iterate_and_residual(self):
        rng = np.random.default_rng(19)
        base = rng.normal(size=(60, 1))
        X = base + 0.001 * rng.normal(size=(60, 8))
        y = X @ np.ones(8) + 0.1 * rng.normal(size=60)
        cen = lasso._center(X, y)
        lam = 0.05 * lambda_max(X, y, SINGLES_8)
        with pytest.raises(ConvergenceError) as err:
            _solve_std(cen.G, cen.c, lam, _check_groups(SINGLES_8, 8), np.zeros(8),
                       lasso.TOL, max_iter=2, kkt_tol=1e-12)
        assert err.value.beta.shape == (8,)
        assert err.value.residual > 1e-12


class TestCrossValidation:
    def test_tie_break_prefers_larger_lambda(self):
        grid = [1.0, 0.5, 0.25, 0.125]
        assert select_best_lambda(grid, [3.0, 2.0, 2.0, 2.5]) == 1
        assert select_best_lambda(grid, [1.0, 1.0, 1.0, 1.0]) == 0
        assert select_best_lambda(grid, [4.0, 3.0, 2.0, 1.0]) == 3

    def test_pure_noise_selects_heavy_penalty(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(80, 6))
        y = rng.normal(size=80)
        groups = tuple((j,) for j in range(6))
        cfg = LassoConfig(lambda_grid=50, folds=4, seed=0)
        lam_best, curve = cv_select_lambda(X, y, groups, cfg)
        grid = [lam for lam, _ in curve]
        assert lam_best >= grid[len(grid) // 2]

    def test_planted_signal_recovered(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(200, 9))
        beta = np.zeros(9)
        beta[0:3] = [1.0, -1.0, 0.8]
        y = X @ beta + 0.3 * rng.normal(size=200)
        groups = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        fit = fit_cv(X, y, groups, LassoConfig(lambda_grid=40, folds=5))
        assert 0 in fit.active_groups
        np.testing.assert_allclose(fit.beta[0:3], beta[0:3], atol=0.15)
        assert len(fit.cv_curve) == 40

    def test_duplicated_folds_match_training_error(self, monkeypatch):
        """Folds that are exact copies validate on the training distribution,
        so the CV curve must equal the single-copy training error curve. With
        rows in order, ``array_split`` cuts the three copies apart."""
        rng = np.random.default_rng(22)
        X1 = rng.normal(size=(20, 4))
        y1 = X1 @ np.array([0.6, 0.0, -0.4, 0.0]) + 0.2 * rng.normal(size=20)
        X = np.vstack([X1, X1, X1])
        y = np.concatenate([y1, y1, y1])
        groups = tuple((j,) for j in range(4))
        cfg = LassoConfig(lambda_grid=12, folds=3)
        monkeypatch.setattr(lasso, "_fold_order", lambda seed, n: np.arange(n))
        _, curve = cv_select_lambda(X, y, groups, cfg)
        for lam, mse in curve:
            fit = fit_group_lasso(X1, y1, groups, lam)
            train_mse = float(np.mean((y1 - fit.intercept - X1 @ fit.beta) ** 2))
            np.testing.assert_allclose(mse, train_mse, rtol=1e-4, atol=1e-8)

    def test_empty_fold_rejected(self):
        X, y = random_problem(23, n=3)
        with pytest.raises(ValueError, match="fold"):
            cv_select_lambda(X, y, SINGLES_8, LassoConfig(folds=4))

    def test_deterministic_given_seed(self):
        X, y = random_problem(24)
        cfg = LassoConfig(lambda_grid=20, folds=4, seed=5)
        a = cv_select_lambda(X, y, SINGLES_8, cfg)
        b = cv_select_lambda(X, y, SINGLES_8, cfg)
        assert a == b

    @pytest.mark.parametrize(
        "seeds",
        [range(200), [2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**73 + 12345]],
        ids=["0-199", "wide"],
    )
    def test_fold_order_is_numpy_permutation(self, seeds):
        """The folds are numpy's ``default_rng(seed).permutation(n)``, drawn
        without ``numpy.random``: one, two, three and more 32-bit seed words."""
        for seed in seeds:
            for n in (1, 2, 3, 5, 10, 37, 100, 257, 500, 1000):
                expected = np.random.default_rng(seed).permutation(n)
                order = _fold_order(seed, n)
                assert order.dtype == expected.dtype
                np.testing.assert_array_equal(order, expected, err_msg=f"seed {seed}, n {n}")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            _fold_order(-1, 5)


class TestPercentChange:
    def test_frozen_values(self):
        assert pct_change(0.0) == 0.0
        np.testing.assert_allclose(pct_change(math.log(2.0)), 100.0, atol=1e-12)
        assert f"{pct_change(-0.0822):.1f}" == "-7.9"
        np.testing.assert_allclose(pct_change(1.0), (math.e - 1) * 100, rtol=1e-15)


class TestReports:
    def make_fit(self):
        X, y = random_problem(25, n=100, p=5)
        names = ["humor", "links", "author:a1", "author:a2", "author:a3"]
        groups = ((0,), (1,), (2, 3, 4))
        lam = 0.05 * lambda_max(X, y, groups)
        return fit_group_lasso(X, y, groups, lam), names

    def test_author_block_collapses_to_range(self):
        fit, names = self.make_fit()
        report = report_coefficients(fit, names)
        assert [r.feature for r in report.rows] == ["humor", "links"]
        pcts = [pct_change(float(fit.beta[j])) for j in (2, 3, 4)]
        np.testing.assert_allclose(report.authors_min_pct, min(pcts))
        np.testing.assert_allclose(report.authors_max_pct, max(pcts))
        assert report.authors_selected == (2 in fit.active_groups)

    def test_regress_csv_layout(self, tmp_path):
        fit, names = self.make_fit()
        report = report_coefficients(fit, names)
        path = tmp_path / "regress.csv"
        write_regress_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature,beta,pct_change,selected"
        assert lines[1].startswith("humor,")
        assert lines[-1].startswith("authors,")
        assert lines[-1].split(",")[-1] in {"true", "false"}

    def test_cv_curve_csv_layout(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_cv_curve_csv([(0.5, 1.25), (0.25, 1.5)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,mean_val_mse"
        assert lines[1] == "0.5,1.25"


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def grouped_vectors(draw):
    """Groups over p columns (singletons only, one block, or a mix of sizes
    1-3, scattered over the columns), a threshold t and two vectors whose
    groups are random, zero, tiny (below 1e-154, where x * x underflows) or
    of norm exactly t * sqrt(p_g)."""
    layout = draw(st.sampled_from(("singletons", "block", "mixed")))
    p = draw(st.integers(2 if layout == "block" else 1, 9))
    if layout == "singletons":
        sizes = [1] * p
    elif layout == "block":
        sizes = [p]
    else:
        sizes = []
        while sum(sizes) < p:
            sizes.append(min(draw(st.integers(1, 3)), p - sum(sizes)))
    columns = draw(st.permutations(range(p)))
    starts = np.cumsum([0] + sizes)
    groups = tuple(tuple(columns[a:b]) for a, b in zip(starts, starts[1:]))
    t = draw(st.sampled_from((1e-160, 1e-3, 0.37, 1.0, 2.5)))

    def vector():
        v = np.zeros(p)
        for g in groups:
            idx = list(g)
            kind = draw(st.sampled_from(("random", "zero", "tiny", "tie")))
            if kind == "random":
                v[idx] = draw(st.lists(
                    st.floats(-3.0, 3.0), min_size=len(idx), max_size=len(idx)
                ))
            elif kind == "tiny":
                for j in idx:
                    mantissa = draw(st.floats(-1.0, 1.0))
                    exponent = draw(st.integers(-560, -512) | st.integers(-1074, -512))
                    v[j] = math.ldexp(mantissa, exponent)
            elif kind == "tie":
                v[idx[0]] = draw(st.sampled_from((1.0, -1.0))) * t * math.sqrt(len(idx))
        return v

    return groups, t, vector(), vector()


def references(groups, p):
    garr = [np.asarray(sorted(g), dtype=int) for g in groups]
    return _check_groups(groups, p), garr, [math.sqrt(len(g)) for g in garr]


class TestVectorizedGroupOps:
    """The layout's array code must equal the per-group loops bit for bit:
    ``manifest.json`` records the KKT residual and lambda at full precision."""

    @given(grouped_vectors())
    @settings(max_examples=300)
    def test_prox_equals_reference(self, case):
        groups, t, v, _ = case
        layout, garr, weights = references(groups, len(v))
        expected = reference_prox(v, [(idx, t * w) for idx, w in zip(garr, weights)])
        assert bits(_prox(v, layout, t)) == bits(expected)

    @given(grouped_vectors())
    @settings(max_examples=300)
    def test_kkt_residual_equals_reference(self, case):
        groups, lam, beta, c = case
        layout, garr, weights = references(groups, len(beta))
        Gb = np.zeros_like(c)
        assert bits(_kkt_residual(Gb, c, beta, lam, layout)) == bits(
            reference_kkt_residual(Gb, c, beta, lam, garr, weights)
        )

    @given(grouped_vectors())
    @settings(max_examples=300)
    def test_penalty_and_norms_equal_reference(self, case):
        groups, lam, b, _ = case
        layout, garr, weights = references(groups, len(b))
        assert bits(_penalty(b, lam, layout)) == bits(
            reference_penalty(b, lam, garr, weights)
        )
        assert bits(layout.norms(b)) == bits([np.linalg.norm(b[g]) for g in garr])


def fit_fingerprint(seed, n, groups, binary):
    """Digests of a CV selection and the final fit on one random problem."""
    rng = np.random.default_rng(seed)
    p = sum(len(g) for g in groups)
    X = (rng.random((n, p)) < 0.4).astype(float) if binary else rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.5 * rng.normal(size=n)
    cfg = LassoConfig(lambda_grid=15, folds=3, seed=seed)
    lam, curve = cv_select_lambda(X, y, groups, cfg)
    fit = fit_group_lasso(X, y, groups, lam)
    digest = hashlib.sha256(bits(curve) + bits(fit.beta)).hexdigest()[:16]
    return (lam.hex(), fit.intercept.hex(), fit.objective.hex(), fit.n_iter,
            kkt_residual_from_fit(X, y, groups, fit).hex(), digest)


# Computed by the solver with its Newton finish, with numpy 2.4 on x86-64;
# another BLAS may round the Gram products differently.
PINNED_FITS = (
    ((31, 40, ((0, 1, 2), (3,), (4,), (5, 6)), False),
     ('0x1.4f1ea9a22437cp-4', '0x1.15da29001d992p-5', '0x1.dd3e45edc64e0p-2', 8,
      '0x1.c000000000000p-52', '5210d60f5faceb91')),
    ((32, 60, ((0,), (1, 2), (3,), (4, 5, 6), (7,)), True),
     ('0x1.98e051757a1cap-8', '-0x1.0c911332c6400p-3', '0x1.622e9a7c45560p-4', 9,
      '0x1.4334f6818ea9fp-51', '09fbeee5a7f0e077')),
    ((33, 30, ((1, 3), (0,), (2,), (4,)), False),
     ('0x1.25ddb8ec197f7p-4', '0x1.5fb4d8f6f7fa2p-7', '0x1.6283a16610648p-2', 7,
      '0x1.33debf0938797p-52', '28a827221f42d382')),
    ((34, 50, ((0,), (1,), (2,), (3, 4, 5, 6, 7, 8)), True),
     ('0x1.e2194e0294be3p-14', '-0x1.ca0c29ad72518p-3', '0x1.d0542904df240p-4', 8,
      '0x1.d074000000000p-52', 'aad0bfbcbd3e8e9d')),
)


@pytest.mark.parametrize("problem, pinned", PINNED_FITS)
def test_fit_bits_pinned(problem, pinned):
    assert fit_fingerprint(*problem) == pinned
