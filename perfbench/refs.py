"""Reference results the benchmark checks divsat's outputs against.

Written from the definitions with numpy, independently of divsat's code.
Checks compare to a relative tolerance, so any correct implementation
passes, including ones that reorder sums at the last-ulp level.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def close(got, want, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_tol)


def sq_dists(a: np.ndarray, b: np.ndarray, block: int = 32) -> np.ndarray:
    """Squared Euclidean distances from explicit differences, row blocks."""
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], block):
        diff = a[lo:lo + block, None, :] - b[None, :, :]
        out[lo:lo + block] = (diff * diff).sum(axis=-1)
    return out


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median positive pairwise distance over the pooled points.

    Uses every ordered pair; each unordered pair appears twice, which
    leaves the median unchanged.
    """
    pooled = np.vstack([x, y])
    d = np.sqrt(sq_dists(pooled, pooled))
    positive = d[d > 0]
    return float(np.median(positive)) if positive.size else 1.0


def mmd_v(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Biased (V-statistic) Gaussian MMD of equal-size sets, divided by N^2."""
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    total = (np.exp(-sq_dists(x, x) * inv).sum() + np.exp(-sq_dists(y, y) * inv).sum()
             - 2.0 * np.exp(-sq_dists(x, y) * inv).sum())
    return float(total) / (x.shape[0] * x.shape[0])


def diversity(values: np.ndarray) -> dict:
    sigma = values.std(axis=0)
    deltas = values - values.mean(axis=0)
    return {
        "std_metric": float(np.exp(np.log(sigma).mean())),
        "centroid_metric": float((deltas * deltas).sum(axis=1).mean()),
        "n": values.shape[0],
        "k": values.shape[1],
    }


def confusion(keep: np.ndarray, relevant: np.ndarray) -> dict:
    tp = int(np.sum(keep & relevant))
    fp = int(np.sum(keep & ~relevant))
    fn = int(np.sum(~keep & relevant))
    tn = int(np.sum(~keep & ~relevant))
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    total = tp + fp + fn + tn
    return {
        "tp": tp, "fp": fp, "fn": fn, "tn": tn, "total": total,
        "precision": precision, "recall": recall,
        "accuracy": (tp + tn) / total,
        "f1": 2 * precision * recall / (precision + recall),
        "pct_before": 100.0 * (fp + tn) / total,
        "pct_after": 100.0 * fp / (tp + fp),
    }


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return float((dx @ dy) / math.sqrt((dx @ dx) * (dy @ dy)))


def pearson_p(r: float, n: int) -> float:
    """Two-tailed p of Pearson r over n pairs, for even df = n - 2.

    Closed form of the Student t distribution for even df (Abramowitz and
    Stegun 26.7.3). With t = r sqrt(df / (1 - r^2)), sin(theta) = |r| and
    cos^2(theta) = 1 - r^2, so
    p = 1 - |r| * sum_{j < df/2} c_j (1 - r^2)^j with c_0 = 1 and
    c_j = c_{j-1} (2j - 1) / (2j).
    """
    df = n - 2
    if df < 2 or df % 2:
        raise ValueError("closed form needs an even df >= 2")
    c, term_sum, cos2 = 1.0, 0.0, 1.0 - r * r
    for j in range(df // 2):
        if j:
            c *= (2 * j - 1) / (2 * j)
        term_sum += c * cos2 ** j
    return 1.0 - abs(r) * term_sum


def fisher_z(rs) -> float:
    return float(np.tanh(np.arctanh(np.asarray(rs, dtype=np.float64)).mean()))
