"""Least-squares fitting of linear functionals on signature features and
empirical L^p error evaluation.

Fitting always minimizes the ridge-regularized squared loss; the reported
errors honor the configured p.  Features are never standardized so fitted
coefficients keep their algebraic meaning (e.g. the coefficient 2 on the
word (1,1) for a squared terminal value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import nearest_breakpoints
from .signature import LinearFunctional, stream_table
from .tensor import total_entries
from .words import all_words

__all__ = [
    "FeatureMatrix",
    "FitReport",
    "build_features",
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
    """Signature coordinates as a design matrix.

    Terminal mode holds one row per sample; stopped mode one row per
    (sample, eval time), sample-major, with per-row trapezoid time weights.
    """

    matrix: np.ndarray
    dim: int
    level: int
    sample_ids: np.ndarray
    time_weights: np.ndarray | None = None

    def __post_init__(self):
        width = total_entries(self.dim, self.level)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != width:
            raise ValueError(
                f"feature matrix must have {width} columns for dim "
                f"{self.dim}, level {self.level}"
            )
        if not np.isfinite(self.matrix).all():
            raise ValueError("non-finite feature entry")
        if not np.allclose(self.matrix[:, 0], 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("empty-word column must be identically 1")

    @property
    def words(self):
        return all_words(self.dim, self.level)

    @property
    def n_samples(self) -> int:
        return int(np.unique(self.sample_ids).size)

    def truncated(self, level: int) -> "FeatureMatrix":
        """Restrict to words of length <= level (a column prefix)."""
        if level > self.level:
            raise ValueError(f"level {level} exceeds stored level {self.level}")
        return FeatureMatrix(
            self.matrix[:, : total_entries(self.dim, level)],
            self.dim,
            level,
            self.sample_ids,
            self.time_weights,
        )


def features_from_values(
    times: np.ndarray,
    values: np.ndarray,
    level: int,
    mode: str = "terminal",
    eval_idx=None,
) -> FeatureMatrix:
    """Build features for a batch of paths sharing one partition.

    values : (B, K, d) absolute breakpoint values; the features are the
    signature coordinates of the time-extended paths (dim d + 1, letter 0
    is time).
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    n_paths, n_pts, d = values.shape
    if mode == "terminal":
        table = stream_table(times, values, level, eval_idx=[n_pts - 1])
        return FeatureMatrix(table[:, 0, :], d + 1, level, np.arange(n_paths))
    if mode == "stopped":
        if eval_idx is None:
            eval_idx = np.arange(n_pts)
        eval_idx = np.asarray(eval_idx, dtype=int)
        table = stream_table(times, values, level, eval_idx=eval_idx)
        weights = trapezoid_weights(times[eval_idx])
        rows = table.reshape(n_paths * eval_idx.size, -1)
        return FeatureMatrix(
            rows,
            d + 1,
            level,
            np.repeat(np.arange(n_paths), eval_idx.size),
            np.tile(weights, n_paths),
        )
    raise ValueError(f"unknown mode {mode!r}")


def build_features(paths, level: int, mode: str = "terminal", eval_times=None) -> FeatureMatrix:
    """features_from_values on a list of paths sharing one partition (their
    own coordinates; time is added as letter 0).

    In stopped mode rows are taken at the breakpoints nearest eval_times
    (exact when the eval times are partition points).
    """
    if not paths:
        raise ValueError("need at least one path")
    times = paths[0].times
    for path in paths:
        if not np.array_equal(path.times, times):
            raise ValueError("paths must share one partition")
    eval_idx = None
    if eval_times is not None:
        eval_times = np.asarray(eval_times, dtype=float)
        if (eval_times < times[0]).any() or (eval_times > times[-1]).any():
            raise ValueError("eval time outside the path horizon")
        eval_idx = np.unique(nearest_breakpoints(times, eval_times))
    values = np.stack([path.values for path in paths])
    return features_from_values(times, values, level, mode, eval_idx)


@dataclass
class FitReport:
    """Fitted functional plus train/test errors and solver diagnostics."""

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
        return {
            "lam": self.lam,
            "p": self.p,
            "train_error": self.train_error,
            "test_error": self.test_error,
            "normal_eq_residual": self.normal_eq_residual,
            "gram_eig_min": self.gram_eig_min,
            "gram_eig_max": self.gram_eig_max,
            "rank_deficient": self.rank_deficient,
            "n_train_samples": self.n_train_samples,
            "n_test_samples": self.n_test_samples,
            "functional": self.functional.to_dict(),
        }


_SPLIT_TAG = 255  # key namespace separating split draws from lattice draws


def _split_permutation(split_seed: int, n: int) -> np.ndarray:
    """Seeded shuffle of 0..n-1 from the counter-based generator, so the
    train/test split never depends on the numpy version."""
    from .stochastic import _derive_keys, _uniform

    u = _uniform(_derive_keys(split_seed, np.arange(n), _SPLIT_TAG, 0, 0), 0)
    return np.argsort(u, kind="stable")


def _weighted_lp(residuals, weights, n_samples, p):
    if weights is None:
        return float(np.mean(np.abs(residuals) ** p) ** (1.0 / p))
    total = float(np.sum(weights * np.abs(residuals) ** p))
    return float((total / n_samples) ** (1.0 / p))


def _functional_from_vector(beta: np.ndarray, dim: int, level: int) -> LinearFunctional:
    coeffs = {w: c for w, c in zip(all_words(dim, level), beta)}
    return LinearFunctional(dim, level, coeffs)


def fit(
    features: FeatureMatrix,
    targets,
    lam: float | None = None,
    p: float = 2.0,
    split_seed: int = 0,
) -> FitReport:
    """Ridge (lam > 0) or minimum-norm least squares (lam = 0) on an 80/20
    sample split.

    Ridge solves the regularized normal equations by Cholesky
    (`scipy.linalg.solve(..., assume_a="pos")`; scipy is imported on this
    branch only). Minimum-norm fits run LAPACK `gelsd` through
    `np.linalg.lstsq` with the singular-value cutoff rcond = 1e-10, so a
    run with lam = 0 never loads scipy's second BLAS runtime.

    lam = None selects the scale-aware default 1e-8 * trace(X'X) / n_cols;
    the split shuffles sample indices with a seeded generator so reruns are
    bit-identical.
    """
    X = features.matrix
    y = np.asarray(targets, dtype=float).ravel()
    if y.size != X.shape[0]:
        raise ValueError(f"{y.size} targets for {X.shape[0]} feature rows")
    if not np.isfinite(y).all():
        raise ValueError("non-finite target")
    if lam is not None and lam < 0:
        raise ValueError("lam must be >= 0")

    sample_ids = np.asarray(features.sample_ids)
    samples = np.unique(sample_ids)
    perm = samples[_split_permutation(split_seed, samples.size)]
    n_test = samples.size // 5 if samples.size >= 2 else 0
    test_samples = perm[: n_test]
    train_mask = ~np.isin(sample_ids, test_samples)

    X_tr, y_tr = X[train_mask], y[train_mask]
    gram = X_tr.T @ X_tr
    xty = X_tr.T @ y_tr
    n_cols = X.shape[1]
    if lam is None:
        lam = 1e-8 * float(np.trace(gram)) / n_cols

    rank_deficient = False
    if lam > 0.0:
        import scipy.linalg

        beta = scipy.linalg.solve(
            gram + lam * np.eye(n_cols), xty, assume_a="pos"
        )
    else:
        # drop directions collinear to within the precision of the feature
        # computation itself; keeping them blows up the minimum-norm solution
        beta, _, rank, _ = np.linalg.lstsq(X_tr, y_tr, rcond=1e-10)
        rank_deficient = rank < n_cols

    residual = float(
        np.linalg.norm((gram + lam * np.eye(n_cols)) @ beta - xty)
    )
    eigs = np.linalg.eigvalsh(gram)
    functional = _functional_from_vector(beta, features.dim, features.level)

    resid_all = y - X @ beta
    w = features.time_weights
    train_error = _weighted_lp(
        resid_all[train_mask],
        None if w is None else w[train_mask],
        samples.size - n_test,
        p,
    )
    if n_test:
        test_error = _weighted_lp(
            resid_all[~train_mask],
            None if w is None else w[~train_mask],
            n_test,
            p,
        )
    else:
        test_error = float("nan")
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
        n_train_samples=int(samples.size - n_test),
        n_test_samples=int(n_test),
    )


def lp_error(functional: LinearFunctional, features: FeatureMatrix, targets, p: float) -> float:
    """Empirical L^p error of a functional against targets.

    Terminal mode: (mean_i |r_i|^p)^(1/p).  Stopped mode: trapezoid time
    weights inside the sample mean, matching the dt x P norm.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    y = np.asarray(targets, dtype=float).ravel()
    width = total_entries(features.dim, functional.level)
    if functional.level > features.level:
        raise ValueError("functional level exceeds feature level")
    preds = features.matrix[:, :width] @ functional.coefficient_vector()
    return _weighted_lp(y - preds, features.time_weights, features.n_samples, p)
