"""Group lasso on log-virality with cross-validated regularization.

Objective: (1/2n)||y - b0 - X b||^2 + lam * sum_g sqrt(p_g) ||b_g||_2 with an
unpenalized intercept. Solved by monotone proximal gradient (ISTA) with
backtracking on the centered and standardized design; gradients use the Gram
form G = X'X/n, c = X'y/n. The objective is non-increasing at every
iteration, which is checked. Every solve stops by one rule, the module
constants below: at most ``MAX_ITER`` iterations, a relative objective change
below ``TOL``, and a KKT residual within ``KKT_TOL`` (``CV_KKT_TOL`` on the
cross-validation paths, whose fits only score held-out rows).

ISTA finds the support (which coefficients are nonzero) long before its
iterates pass the KKT check, so each solve ends with a Newton step on the
support (proximal Newton; Lee, Sun and Saunders, SIAM J. Optim. 2014). Once
an iteration has moved the objective by less than ``TOL`` relative, the best
iterate is returned if it is certified, as before. If not, and the support
differs from the one last tried, Newton solves the support's stationarity
equations with the singletons' signs fixed. Its answer is returned only if
its objective is no higher than the current iterate's and its KKT residual
is within the KKT tolerance, the certificate ISTA itself must pass;
otherwise ISTA goes on.

A cross-validation path is walked by continuation (Friedman, Hastie and
Tibshirani, J. Stat. Softw. 2010) with that same Newton kernel. ISTA solves
the first grid point below the fold's lambda_top. Newton then solves every
later grid point at once on the current support, one stacked
``np.linalg.solve`` per iteration, and one pass of the KKT certificate over
the rows accepts the longest prefix within ``CV_KKT_TOL`` (a NaN residual
never passes). Where the support changes, one prox step from the last
accepted solution proposes the new support, which the kernel solves and the
certificate judges in the same way; only if that fails does ISTA solve the
grid point. Stacked products give every row the bits of its own call, so a
path whose stacked rows are all rejected is the per-lambda loop's, bit for
bit.

The groups of a problem are split once into a layout: the singleton groups
are thresholded together as arrays, and only the multi-column blocks are
visited one at a time. Two choices keep every bit equal to the per-group
``np.linalg.norm`` loop this replaces. A singleton's norm is
``sqrt(x * x)``, which is what ``norm`` computes for one entry; ``abs(x)``
differs where ``x * x`` underflows (|x| below ~1e-154), and would move
both the prox and the KKT branch there. The penalty is a sequential Python
sum over groups in group order, since ``np.sum`` adds pairwise and would
move the last bits of the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .csvio import write_csv
from .labels import AUTHOR_PREFIX

Groups = Sequence[Sequence[int]]

# The stopping rule of every solve (see the module docstring).
TOL = 1e-6
MAX_ITER = 10_000
KKT_TOL = 1e-7
CV_KKT_TOL = 1e-6


@dataclass(frozen=True)
class LassoConfig:
    lambda_grid: int = 100
    folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lambda_grid < 1:
            raise ValueError("lambda_grid must be positive")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")


@dataclass(frozen=True)
class LassoFit:
    lam: float
    intercept: float
    beta: np.ndarray
    active_groups: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    objective: float
    n_iter: int
    cv_curve: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class CoefficientRow:
    feature: str
    beta: float
    pct_change: float
    selected: bool


@dataclass(frozen=True)
class CoefficientReport:
    rows: tuple[CoefficientRow, ...]
    authors_min_pct: float | None = None
    authors_max_pct: float | None = None
    authors_selected: bool = False


class ConvergenceError(ArithmeticError):
    """Carries the last iterate and KKT residual on solver failure."""

    def __init__(self, message: str, beta: np.ndarray, residual: float):
        super().__init__(message)
        self.beta = beta
        self.residual = residual


def pct_change(beta: float) -> float:
    """Predicted percent change in virality for a one-unit feature change."""
    return (math.exp(beta) - 1.0) * 100.0


@dataclass(frozen=True)
class _Layout:
    """The column groups of one problem, split for the solver's inner loop."""

    groups: tuple[np.ndarray, ...]
    w: np.ndarray  # sqrt(p_g) per group
    single_cols: np.ndarray  # the column of each singleton group
    single_pos: np.ndarray  # the position of each singleton group
    blocks: tuple[tuple[int, np.ndarray, float], ...]  # (position, columns, w)

    def norms(self, b: np.ndarray) -> np.ndarray:
        """||b_g||_2 for every group, in group order."""
        out = np.empty(len(self.groups))
        s = b[self.single_cols]
        out[self.single_pos] = np.sqrt(s * s)
        for pos, idx, _ in self.blocks:
            blk = b[idx]
            out[pos] = math.sqrt(blk.dot(blk))
        return out


def _check_groups(groups: Groups, p: int) -> _Layout:
    """The layout of groups that partition the p columns; raises otherwise."""
    seen: set[int] = set()
    arrays = []
    for g in groups:
        idx = np.asarray(sorted(g), dtype=int)
        if idx.size == 0:
            raise ValueError("empty group")
        if seen & set(idx.tolist()):
            raise ValueError("groups overlap")
        seen |= set(idx.tolist())
        arrays.append(idx)
    if seen != set(range(p)):
        raise ValueError("groups must cover every column exactly once")
    singles = [k for k, g in enumerate(arrays) if g.size == 1]
    return _Layout(
        groups=tuple(arrays),
        w=np.array([math.sqrt(g.size) for g in arrays]),
        single_cols=np.array([arrays[k][0] for k in singles], dtype=int),
        single_pos=np.array(singles, dtype=int),
        blocks=tuple(
            (k, g, math.sqrt(g.size)) for k, g in enumerate(arrays) if g.size > 1
        ),
    )


class _Centered(NamedTuple):
    """A design centered and scaled, with its Gram form."""

    Xs: np.ndarray
    yc: np.ndarray
    mu: np.ndarray
    sd: np.ndarray
    y_mean: float
    G: np.ndarray  # Xs'Xs/n
    c: np.ndarray  # Xs'yc/n


def _center(X: np.ndarray, y: np.ndarray) -> _Centered:
    """Center and scale the design; constants scale to zero."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    Xs = (X - mu) / sd
    y_mean = float(y.mean())
    yc = y - y_mean
    n = X.shape[0]
    return _Centered(Xs, yc, mu, sd, y_mean, Xs.T @ Xs / n, Xs.T @ yc / n)


def _lam_top(c: np.ndarray, layout: _Layout) -> float:
    """Smallest penalty at which every group of the centered problem is zero."""
    return max((layout.norms(c) / layout.w).tolist())


def lambda_max(X: np.ndarray, y: np.ndarray, groups: Groups) -> float:
    """Smallest penalty at which every group's coefficient block is zero."""
    layout = _check_groups(groups, X.shape[1])
    cen = _center(np.asarray(X, float), np.asarray(y, float))
    return _lam_top(cen.c, layout)


def lambda_grid(lam_max: float, size: int) -> np.ndarray:
    """Geometric grid from lam_max down to lam_max * 1e-4."""
    if lam_max <= 0:
        return np.zeros(size)
    if size == 1:
        return np.array([lam_max])
    return np.geomspace(lam_max, lam_max * 1e-4, size)


def _prox(v: np.ndarray, layout: _Layout, t: float) -> np.ndarray:
    """Block soft threshold of v at t * sqrt(p_g) for every group g."""
    out = v.copy()
    # A singleton's weight is 1, so its threshold is t itself.
    s = v[layout.single_cols]
    norm = np.sqrt(s * s)
    zero = norm <= t
    out[layout.single_cols] = np.where(
        zero, 0.0, (1.0 - t / np.where(zero, 1.0, norm)) * s
    )
    for _, idx, w in layout.blocks:
        block = v[idx]
        norm = math.sqrt(block.dot(block))
        thr = t * w
        out[idx] = 0.0 if norm <= thr else (1.0 - thr / norm) * block
    return out


def _rowdot(a: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself, bit for bit ``row.dot(row)``: the
    stacked matmul makes the same BLAS ``ddot`` call per contiguous row."""
    a = np.ascontiguousarray(a)
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _kkt_residual(
    Gb: np.ndarray, c: np.ndarray, beta: np.ndarray, lam: float | np.ndarray, layout: _Layout
) -> float | np.ndarray:
    """Largest violation of the optimality conditions of each row of beta at
    its penalty in lam (a float for a 1-D beta), NaN where any term is NaN."""
    one = beta.ndim == 1
    Gb, beta = Gb.reshape(-1, c.size), beta.reshape(-1, c.size)
    lam = np.asarray(lam, dtype=float).reshape(-1, 1)
    res = c - Gb
    r = res.take(layout.single_cols, axis=1)
    b = beta.take(layout.single_cols, axis=1)
    norm = np.sqrt(b * b)
    active = norm != 0.0  # a NaN coefficient is active, so its term is NaN
    d = r - lam * b / np.where(active, norm, 1.0)
    terms = [np.where(active, np.sqrt(d * d), np.sqrt(r * r) - lam)]
    for _, idx, w in layout.blocks:
        r_g = res.take(idx, axis=1)
        b_g = beta.take(idx, axis=1)
        norm = np.sqrt(_rowdot(b_g))[:, None]
        active = norm != 0.0
        d = r_g - lam * w * b_g / np.where(active, norm, 1.0)
        terms.append(np.where(active, np.sqrt(_rowdot(d))[:, None],
                              np.sqrt(_rowdot(r_g))[:, None] - lam * w))
    # np.max, unlike Python's max, keeps a NaN wherever it stands.
    worst = np.concatenate(terms, axis=1).max(axis=1, initial=0.0)
    return float(worst[0]) if one else worst


def _penalty(b: np.ndarray, lam: float, layout: _Layout) -> float:
    return lam * sum((layout.w * layout.norms(b)).tolist())


def _newton_rows(
    G: np.ndarray, c: np.ndarray, lams: np.ndarray, layout: _Layout, beta: np.ndarray
) -> np.ndarray:
    """Newton on the stationarity equations of beta's support at each penalty
    in lams, started from beta: one row per penalty, NaN where it fails.

    With the active singletons' signs and the active blocks fixed, the
    optimum solves G_AA b - c_A + lam d(b) = 0, where d is sign(b_j) for a
    singleton and w b_g / ||b_g|| for a block. A row fails when a singleton
    changes sign or a block's norm reaches zero (the support was not final);
    a singular Jacobian fails every row still iterating. Their Jacobians are
    stacked, so each iteration is one ``np.linalg.solve`` call, and every
    row takes the steps it would take alone, bit for bit.
    """
    s = beta[layout.single_cols]
    on = s != 0.0
    sign = np.sign(s[on])
    n_single = int(on.sum())
    cols = [layout.single_cols[on]]
    spans = []  # (start, stop, w, identity) of each active block in the active set
    start = n_single
    for _, idx, w in layout.blocks:
        if beta[idx].any():
            cols.append(idx)
            spans.append((start, start + idx.size, w, np.eye(idx.size)))
            start += idx.size
    A = np.concatenate(cols)
    G_AA = G[A[:, None], A]
    c_A = c[A]
    # The ridge keeps J invertible where G_AA is singular (collinear columns,
    # or indicators that sum to the intercept); lstsq, pinv and eigh would
    # page in about a megabyte more on their first call than solve does.
    J0 = G_AA + 1e-10 * np.eye(A.size)
    rows = np.full((lams.size, A.size), np.nan)
    live = np.arange(lams.size)  # the rows still iterating, in grid order
    b = np.repeat(beta[A][None], lams.size, axis=0)
    lam = lams[:, None]
    for it in range(13):  # 12 steps; the last pass only checks the last step
        # A singleton that changed sign fails its row, and every row after
        # it, which can no longer join a certified prefix.
        keep = ~np.logical_or.accumulate(np.any(b[:, :n_single] * sign <= 0.0, axis=1))
        if not keep.all():
            live, b, lam = live[keep], b[keep], lam[keep]
        if it == 12 or not live.size:
            break
        broken = np.zeros(live.size, dtype=bool)
        J = np.repeat(J0[None], live.size, axis=0)
        d = np.empty_like(b)
        d[:, :n_single] = sign
        for lo, hi, w, eye in spans:
            norm = np.sqrt(_rowdot(b[:, lo:hi]))[:, None]
            zero = norm == 0.0
            broken |= zero[:, 0]
            norm[zero] = 1.0  # a broken row, kept from dividing by zero
            u = b[:, lo:hi] / norm
            d[:, lo:hi] = w * u
            # The Jacobian of w b_g / ||b_g|| is w (I - u u') / ||b_g||.
            outer = u[:, :, None] * u[:, None, :]
            J[:, lo:hi, lo:hi] += (lam * w / norm)[:, :, None] * (eye - outer)
        F = np.matmul(G_AA, b[:, :, None])[:, :, 0] - c_A + lam * d
        done = ~(np.abs(F).max(axis=1, initial=0.0) > 1e-15) & ~broken
        rows[live[done]] = b[done]
        go = ~(done | np.logical_or.accumulate(broken))
        if not go.all():
            live, b, lam, J, F = live[go], b[go], lam[go], J[go], F[go]
            if not live.size:
                break
        try:
            b = b - np.linalg.solve(J, F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            live, b = live[:0], b[:0]
            break
    rows[live] = b
    out = np.zeros((lams.size, beta.size))
    out[:, A] = rows
    return out


def _newton_finish(
    G: np.ndarray, c: np.ndarray, lam: float, layout: _Layout, beta: np.ndarray
) -> np.ndarray | None:
    """``_newton_rows`` at one penalty, or None where it fails."""
    out = _newton_rows(G, c, np.array([lam]), layout, beta)[0]
    return None if np.isnan(out).any() else out


def _solve_std(
    G: np.ndarray,
    c: np.ndarray,
    lam: float,
    layout: _Layout,
    beta0: np.ndarray,
    tol: float,
    max_iter: int,
    kkt_tol: float,
) -> tuple[np.ndarray, float, int]:
    """Monotone proximal gradient on the centered problem, finished by Newton
    on the support once it settles; returns (beta, smooth+penalty objective
    up to the constant ||yc||^2/2n, iters)."""
    beta = beta0.copy()
    Gb = G @ beta
    smooth = 0.5 * float(beta @ Gb) - float(c @ beta)
    obj = smooth + _penalty(beta, lam, layout)
    # Near the optimum the objective is flat at float resolution and the
    # iterate can drift, so keep the best-certified point seen so far.
    best_res = _kkt_residual(Gb, c, beta, lam, layout)
    best_beta, best_obj, best_it = beta.copy(), obj, 0
    tried = None  # the support the Newton finish last started from
    step = 1.0
    for it in range(1, max_iter + 1):
        grad = Gb - c
        while True:
            z = _prox(beta - step * grad, layout, step * lam)
            dz = z - beta
            Gz = G @ z
            smooth_z = 0.5 * float(z @ Gz) - float(c @ z)
            quad = smooth + float(grad @ dz) + float(dz @ dz) / (2.0 * step)
            if smooth_z <= quad + 1e-12:
                break
            step *= 0.5
        new_obj = smooth_z + _penalty(z, lam, layout)
        if new_obj > obj + 1e-9:
            raise ConvergenceError(
                f"objective increased at iteration {it}", z, math.inf
            )
        rel = (obj - new_obj) / max(1.0, abs(new_obj))
        beta, Gb, smooth, obj = z, Gz, smooth_z, new_obj
        step *= 1.25
        residual = _kkt_residual(Gb, c, beta, lam, layout)
        if residual < best_res:
            best_res, best_beta, best_obj, best_it = residual, beta.copy(), obj, it
        if rel >= tol:
            continue
        if best_res <= kkt_tol:
            return best_beta, best_obj, best_it
        support = beta != 0.0
        if tried is None or not np.array_equal(support, tried):
            tried = support
            cand = _newton_finish(G, c, lam, layout, beta)
            if cand is not None:
                Gc = G @ cand
                cand_obj = (
                    0.5 * float(cand @ Gc) - float(c @ cand) + _penalty(cand, lam, layout)
                )
                if (
                    cand_obj <= obj + 1e-12
                    and _kkt_residual(Gc, c, cand, lam, layout) <= kkt_tol
                ):
                    return cand, cand_obj, it
    if best_res <= kkt_tol:
        return best_beta, best_obj, best_it
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (KKT residual {best_res:.3g})",
        best_beta,
        best_res,
    )


def fit_group_lasso(X: np.ndarray, y: np.ndarray, groups: Groups, lam: float) -> LassoFit:
    """Fit at one penalty level; coefficients returned on the original scale.

    lam=0 reduces to least squares and is solved exactly; lam >= lambda_max
    returns exact zeros immediately.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X and y shapes disagree")
    if X.shape[0] < 2:
        raise ValueError("need at least two rows")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    n, p = X.shape
    layout = _check_groups(groups, p)
    cen = _center(X, y)

    if lam == 0.0:
        beta_std, *_ = np.linalg.lstsq(cen.Xs, cen.yc, rcond=None)
        n_iter = 0
        objective = 0.5 * float(beta_std @ (cen.G @ beta_std)) - float(cen.c @ beta_std)
    elif lam >= _lam_top(cen.c, layout):
        beta_std = np.zeros(p)
        objective = 0.0
        n_iter = 0
    else:
        beta_std, objective, n_iter = _solve_std(
            cen.G, cen.c, lam, layout, np.zeros(p), TOL, MAX_ITER, KKT_TOL
        )

    beta = beta_std / cen.sd
    intercept = cen.y_mean - float(beta @ cen.mu)
    active = tuple(np.flatnonzero(layout.norms(beta_std) > 0.0).tolist())
    constant = 0.5 * float(cen.yc @ cen.yc) / n
    return LassoFit(
        lam=float(lam),
        intercept=intercept,
        beta=beta,
        active_groups=active,
        groups=tuple(tuple(g.tolist()) for g in layout.groups),
        objective=objective + constant,
        n_iter=n_iter,
    )


def kkt_residual_from_fit(
    X: np.ndarray, y: np.ndarray, groups: Groups, fit: LassoFit
) -> float:
    """Independent certificate: residual recomputed from data and fit alone."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    layout = _check_groups(groups, X.shape[1])
    cen = _center(X, y)
    beta_std = fit.beta * cen.sd
    # Recomputed from the design rather than the Gram matrix the solver used.
    Gb = cen.Xs.T @ (cen.Xs @ beta_std) / X.shape[0]
    return _kkt_residual(Gb, cen.c, beta_std, fit.lam, layout)


def select_best_lambda(grid: Sequence[float], mean_err: Sequence[float]) -> int:
    """Index of the smallest mean error; ties go to the larger lambda.

    The grid is decreasing, so scanning forward and keeping only strict
    improvements lands on the earliest (largest) lambda among tied minima.
    """
    best = 0
    for j in range(1, len(grid)):
        if mean_err[j] < mean_err[best]:
            best = j
    return best


# Word masks and the PCG64 multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128).
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _fold_order(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).permutation(n)`` for ``n < 2**32``,
    computed without importing ``numpy.random`` (6 MB resident per process).

    ``SeedSequence`` hashes the seed's 32-bit words into a pool of four and
    draws four 64-bit words from it; the first two seed the 128-bit PCG64
    state and the last two its increment (O'Neill, HMC-CS-2014-0905). Each
    XSL-RR output serves two 32-bit draws, low half first. The shuffle is
    Fisher-Yates from the end, each index drawn by masked rejection.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")

    def hasher(const: int, mult: int):
        def hash32(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16

        return hash32

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = hasher(0x8B51F9DD, 0x58F38DED)
    half = [draw(pool[i % 4]) for i in range(8)]
    words = [half[k] | half[k + 1] << 32 for k in (0, 2, 4, 6)]

    inc = (words[2] << 65 | words[3] << 1 | 1) & _M128
    state = ((words[0] << 64 | words[1]) + inc) * _PCG64_MULT + inc & _M128

    def draws32():
        nonlocal state
        while True:
            state = state * _PCG64_MULT + inc & _M128
            rot, x = state >> 122, (state >> 64 ^ state) & _M64
            x = (x >> rot | x << (64 - rot)) & _M64
            yield x & _M32
            yield x >> 32

    order, draws = list(range(n)), draws32()
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(draws) & mask
        while j > i:
            j = next(draws) & mask
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def _cv_path(
    G: np.ndarray, c: np.ndarray, grid: np.ndarray, lam_top: float, layout: _Layout
) -> np.ndarray:
    """The solutions at every grid point, one row each: zero at or above
    lam_top, below it each certified within ``CV_KKT_TOL`` (see the module
    docstring)."""
    path = np.zeros((grid.size, c.size))
    j = int(np.count_nonzero(grid >= lam_top))
    beta = np.zeros(c.size)
    start = None  # where Newton starts next; None to solve grid[j] by ISTA
    while j < grid.size:
        if start is None:
            beta, _, _ = _solve_std(
                G, c, float(grid[j]), layout, beta, TOL, MAX_ITER, CV_KKT_TOL
            )
            path[j], start = beta, beta
            j += 1
            continue
        rows = _newton_rows(G, c, grid[j:], layout, start)
        Gb = np.matmul(G, rows[:, :, None])[:, :, 0]
        certified = _kkt_residual(Gb, c, rows, grid[j:], layout) <= CV_KKT_TOL
        n = certified.size if certified.all() else int(certified.argmin())
        path[j : j + n] = rows[:n]
        j += n
        if n:
            beta = rows[n - 1]
        elif start is not beta:
            start = None  # the proposed support failed as well
            continue
        if j < grid.size:
            # The support changed at grid[j]: one prox step there proposes it.
            start = _prox(beta - (G @ beta - c), layout, float(grid[j]))
    return path


def cv_select_lambda(
    X: np.ndarray,
    y: np.ndarray,
    groups: Groups,
    config: LassoConfig,
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """K-fold CV over a geometric grid, each fold's path by ``_cv_path``.

    Returns (lambda_best, curve) where curve pairs each lambda with its mean
    validation squared error; ties resolve to the larger lambda.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < config.folds:
        raise ValueError("need at least one row per fold")
    layout = _check_groups(groups, X.shape[1])

    order = _fold_order(config.seed, n)
    folds = [np.sort(part) for part in np.array_split(order, config.folds)]
    if any(len(f) == 0 for f in folds):
        raise ValueError("fold with zero rows; reduce folds")

    grid = lambda_grid(_lam_top(_center(X, y).c, layout), config.lambda_grid)
    errors = np.zeros((len(folds), len(grid)))
    for k, val_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        X_val, y_val = X[val_idx], y[val_idx]
        cen = _center(X[mask], y[mask])
        path = _cv_path(cen.G, cen.c, grid, _lam_top(cen.c, layout), layout) / cen.sd
        # Stacked products make the per-row BLAS calls of a per-lambda loop.
        intercept = cen.y_mean - np.matmul(path[:, None, :], cen.mu[:, None])[:, 0, 0]
        pred = intercept[:, None] + np.matmul(X_val, path[:, :, None])[:, :, 0]
        errors[k] = np.mean((y_val - pred) ** 2, axis=1)

    mean_err = errors.mean(axis=0)
    best = select_best_lambda(grid, mean_err)
    curve = tuple((float(l), float(e)) for l, e in zip(grid, mean_err))
    return float(grid[best]), curve


def fit_cv(X: np.ndarray, y: np.ndarray, groups: Groups, config: LassoConfig) -> LassoFit:
    """CV-selected penalty, then a final certified fit on all rows."""
    lam_best, curve = cv_select_lambda(X, y, groups, config)
    return replace(fit_group_lasso(X, y, groups, lam_best), cv_curve=curve)


def report_coefficients(fit: LassoFit, column_names: Sequence[str]) -> CoefficientReport:
    """Per-feature percent changes; author indicators summarized as a range."""
    active_cols = {j for gi in fit.active_groups for j in fit.groups[gi]}
    rows = []
    author_pcts = []
    authors_selected = False
    for j, name in enumerate(column_names):
        beta_j = float(fit.beta[j])
        if name.startswith(AUTHOR_PREFIX):
            author_pcts.append(pct_change(beta_j))
            authors_selected = authors_selected or j in active_cols
        else:
            rows.append(
                CoefficientRow(
                    feature=name,
                    beta=beta_j,
                    pct_change=pct_change(beta_j),
                    selected=j in active_cols,
                )
            )
    if author_pcts:
        return CoefficientReport(
            rows=tuple(rows),
            authors_min_pct=min(author_pcts),
            authors_max_pct=max(author_pcts),
            authors_selected=authors_selected,
        )
    return CoefficientReport(rows=tuple(rows))


def write_regress_csv(report: CoefficientReport, path: str | Path) -> None:
    rows = [
        [row.feature, f"{row.beta:.12g}", f"{row.pct_change:.1f}",
         "true" if row.selected else "false"]
        for row in report.rows
    ]
    if report.authors_min_pct is not None:
        rows.append(
            ["authors", f"{report.authors_min_pct:.1f}", f"{report.authors_max_pct:.1f}",
             "true" if report.authors_selected else "false"]
        )
    write_csv(path, ["feature", "beta", "pct_change", "selected"], rows)


def write_cv_curve_csv(
    curve: Iterable[tuple[float, float]], path: str | Path
) -> None:
    write_csv(
        path,
        ["lambda", "mean_val_mse"],
        ([f"{lam:.12g}", f"{err:.12g}"] for lam, err in curve),
    )
