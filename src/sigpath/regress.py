"""Least-squares fitting of linear functionals on signature features and
empirical L^p error evaluation.

Fitting minimizes the squared loss: ridge-regularized for lam > 0 (or
unset), minimum-norm for lam = 0; the reported errors honor the configured
p.  Features are never standardized so fitted coefficients keep their
algebraic meaning (e.g. the coefficient 2 on the word (1,1) for a squared
terminal value).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .signature import LinearFunctional, stream_table
from .stochastic import train_mask
from .tensor import all_words, total_entries

__all__ = [
    "FeatureMatrix",
    "FitReport",
    "features_from_values",
    "fit",
    "lp_error",
    "trapezoid_weights",
]


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights on a time grid; they sum to the span."""
    times = np.asarray(times, dtype=float)
    w = np.zeros(times.size)
    gaps = np.diff(times)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Signature coordinates of a batch of paths, sample-major.

    table is (n_samples, rows_per_sample, D), D = total_entries(dim, level):
    one row per sample in terminal mode, one per eval time in stopped mode,
    each weighed in the L^p error by time_weights (rows_per_sample,): np.ones(1)
    in terminal mode, the eval times' trapezoid weights in stopped mode. A
    lower level's features are a column prefix of the table.
    """

    table: np.ndarray
    dim: int
    level: int
    time_weights: np.ndarray

    def __post_init__(self):
        width = total_entries(self.dim, self.level)
        if self.table.ndim != 3 or self.table.shape[2] != width:
            raise ValueError(
                f"feature table must have shape (samples, rows, {width}) for "
                f"dim {self.dim}, level {self.level}"
            )
        if np.shape(self.time_weights) != self.table.shape[1:2]:
            raise ValueError("time_weights must hold one weight per row of a sample")
        if not np.isfinite(self.table).all():
            raise FloatingPointError("non-finite feature entry (overflow)")
        if not np.allclose(self.table[..., 0], 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("empty-word column must be identically 1")

    @property
    def words(self):
        return all_words(self.dim, self.level)

    @property
    def matrix(self) -> np.ndarray:
        """The (n_samples * rows_per_sample, D) design matrix view."""
        return self.table.reshape(-1, self.table.shape[2])


def features_from_values(
    times: np.ndarray, values: np.ndarray, level: int, mode: str = "terminal"
) -> FeatureMatrix:
    """Build features for a batch of paths sharing one partition.

    values : (B, K, d) absolute breakpoint values; the features are the
    signature coordinates of the time-extended paths (dim d + 1, letter 0
    is time), at the last breakpoint in terminal mode and at every
    breakpoint, with trapezoid weights, in stopped mode.
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    n_pts, d = values.shape[1:]
    if mode not in ("terminal", "stopped"):
        raise ValueError(f"unknown mode {mode!r}")
    stopped = mode == "stopped"
    table = stream_table(times, values, level, eval_idx=None if stopped else [n_pts - 1])
    weights = trapezoid_weights(times) if stopped else np.ones(1)
    return FeatureMatrix(table, d + 1, level, weights)


@dataclass
class FitReport:
    """Fitted functional plus train/test errors and solver diagnostics.

    normal_eq_residual is norm(lhs @ beta - xty) of the rounded normal
    equations: it shows how those were rounded, not how accurate beta is,
    and can grow as the solve improves.
    """

    functional: LinearFunctional
    lam: float
    p: float
    train_error: float
    test_error: float
    normal_eq_residual: float
    gram_eig_min: float
    gram_eig_max: float
    rank_deficient: bool
    n_train_samples: int
    n_test_samples: int

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["functional"] = self.functional.to_dict()
        return out


def _weighted_lp(residuals, weights, p):
    """L^p norm, 1 <= p < inf, of (samples, rows) residuals: the mean over
    samples of the row sum of |r|^p weighted by `weights` (rows,)."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p!r}")
    terms = np.abs(residuals) ** p
    total = float(np.sum((weights * terms).ravel()))
    return float((total / residuals.shape[0]) ** (1.0 / p))


def _functional_from_vector(beta: np.ndarray, dim: int, level: int) -> LinearFunctional:
    coeffs = {w: c for w, c in zip(all_words(dim, level), beta)}
    return LinearFunctional(dim, level, coeffs)


def fit(
    features: FeatureMatrix,
    targets,
    lam: float | None = None,
    p: float = 2.0,
    split_seed: int = 0,
    level: int | None = None,
) -> FitReport:
    """Ridge (lam > 0) or minimum-norm least squares (lam = 0) on an 80/20
    split of the samples (all rows of a sample on one side), over the words
    of length <= level (default: the features' level): a column prefix,
    whose training rows are copied to one C-contiguous matrix.

    Ridge solves the regularized normal equations with `np.linalg.solve`
    (LU) and takes two refinement steps on the residual
    X'(y - X beta) - lam beta, formed from X itself; a singular system
    raises `np.linalg.LinAlgError`, and an ill-conditioned one shows in
    gram_eig_min and gram_eig_max. Minimum-norm fits run LAPACK `gelsd`
    through `np.linalg.lstsq` with the singular-value cutoff rcond = 1e-10.

    lam = None selects the scale-aware default 1e-8 * trace(X'X) / n_cols;
    the split is seeded, so reruns are bit-identical. Overflowing normal
    equations raise FloatingPointError before any solve, and an overflowing
    error is returned as inf; the residual norm is rescaled when only its
    squares overflow. Whether an overflow also warns follows the caller's
    np.errstate.

    normal_eq_residual is norm(lhs @ beta - xty) of the rounded normal
    equations, lhs = X'X + lam I and xty = X'y.  It measures how those were
    rounded, not how accurate beta is, and it can grow as the solve
    improves: refinement took a depth-8, level-2 functional fit from 5.3e-9
    to 5e-17 relative to the exact solution, and its residual from 1.2e-13
    to 3.6e-12.
    """
    level = features.level if level is None else level
    if not 0 <= level <= features.level:
        raise ValueError(f"level {level} outside 0..{features.level}")
    n_samples, rows, _ = features.table.shape
    n_cols = total_entries(features.dim, level)
    y = np.asarray(targets, dtype=float).ravel()
    if y.size != n_samples * rows:
        raise ValueError(f"{y.size} targets for {n_samples * rows} feature rows")
    if not np.isfinite(y).all():
        raise ValueError("non-finite target")
    if lam is not None and lam < 0:
        raise ValueError("lam must be >= 0")

    train = train_mask(split_seed, n_samples)
    n_test = n_samples - int(train.sum())
    X_tr = features.table[train, :, :n_cols].reshape(-1, n_cols)
    y_tr = y.reshape(n_samples, rows)[train].ravel()
    gram = X_tr.T @ X_tr
    xty = X_tr.T @ y_tr
    if lam is None:
        lam = 1e-8 * float(np.trace(gram)) / n_cols
    lhs = gram + lam * np.eye(n_cols)
    if not (np.isfinite(lhs).all() and np.isfinite(xty).all()):
        raise FloatingPointError(
            f"normal equations overflow at level {level}: non-finite X'X or X'y"
        )

    rank_deficient = False
    if lam > 0.0:
        beta = np.linalg.solve(lhs, xty)
        for _ in range(2):
            beta += np.linalg.solve(lhs, X_tr.T @ (y_tr - X_tr @ beta) - lam * beta)
    else:
        # drop directions collinear to within the precision of the feature
        # computation itself; keeping them blows up the minimum-norm solution
        beta, _, rank, _ = np.linalg.lstsq(X_tr, y_tr, rcond=1e-10)
        rank_deficient = rank < n_cols

    r = lhs @ beta - xty
    residual = float(np.linalg.norm(r))
    if not np.isfinite(residual) and np.isfinite(r).all():
        # norm squares the entries unscaled, so entries beyond ~1e154 overflow
        scale = np.abs(r).max()
        residual = float(scale * np.linalg.norm(r / scale))
    eigs = np.linalg.eigvalsh(gram)
    functional = _functional_from_vector(beta, features.dim, level)

    resid = (y - features.matrix[:, :n_cols] @ beta).reshape(n_samples, rows)
    w = features.time_weights
    train_error = _weighted_lp(resid[train], w, p)
    test_error = _weighted_lp(resid[~train], w, p) if n_test else float("nan")
    return FitReport(
        functional=functional,
        lam=float(lam),
        p=float(p),
        train_error=train_error,
        test_error=test_error,
        normal_eq_residual=residual,
        gram_eig_min=float(eigs[0]),
        gram_eig_max=float(eigs[-1]),
        rank_deficient=bool(rank_deficient),
        n_train_samples=n_samples - n_test,
        n_test_samples=n_test,
    )


def lp_error(functional: LinearFunctional, features: FeatureMatrix, targets, p: float) -> float:
    """Empirical L^p error, 1 <= p < inf, of a functional against targets,
    (mean_i sum_j w_j |r_ij|^p)^(1/p) with the features' time_weights w:
    the sample mean of |r_i|^p at T in terminal mode (w = 1), of its
    trapezoid time integral in stopped mode (the dt x P norm).
    """
    y = np.asarray(targets, dtype=float).ravel()
    width = total_entries(features.dim, functional.level)
    if functional.level > features.level:
        raise ValueError("functional level exceeds feature level")
    preds = features.matrix[:, :width] @ functional.coefficient_vector()
    resid = (y - preds).reshape(features.table.shape[:2])
    return _weighted_lp(resid, features.time_weights, p)
