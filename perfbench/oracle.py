"""Independent numpy reference computations for the output checks.

Nothing here imports triscore.  Every quantity a check compares is
recomputed from the generated arrays, so an error in the program cannot
hide in the check as well.  Categories are integer indices 0, 1, 2 for
B, N, A.
"""

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
RULES = {
    "brier": np.eye(3) / _SQRT2,
    "rps": np.tril(np.ones((3, 3))) / _SQRT2,
}
#: Components above -ON_SIMPLEX_TOL count as on the simplex, as in the program.
ON_SIMPLEX_TOL = 1e-12


def gram(rule: str) -> np.ndarray:
    L = RULES[rule]
    return L.T @ L


def quad(rule: str, d: np.ndarray) -> np.ndarray:
    """Row-wise quadratic form d' L'L d."""
    return np.einsum("ij,jk,ik->i", d, gram(rule), d)


def onehot(obs: np.ndarray) -> np.ndarray:
    return np.eye(3)[obs]


def mean_score(rule: str, p: np.ndarray, obs: np.ndarray) -> float:
    return math.fsum(quad(rule, p - onehot(obs))) / len(obs)


def snap(p: np.ndarray, nbins: int) -> np.ndarray:
    """Largest-remainder lattice keys, ties broken in the order B, N, A."""
    scaled = p * nbins
    keys = np.floor(scaled)
    order = np.argsort(-(scaled - keys), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    missing = nbins - keys.sum(axis=1)
    keys += rank < missing[:, None]
    return keys.astype(np.int64)


def decompose(rule: str, p: np.ndarray, obs: np.ndarray, nbins: int, group=None) -> dict:
    """Binned S, U, Z, R (and q_bar, bin count) for each group of records.

    ``group`` holds a small non-negative integer per record; records of
    different groups never share a bin.  Every returned array has one
    entry per group id.
    """
    n = len(obs)
    group = np.zeros(n, dtype=np.int64) if group is None else np.asarray(group)
    n_groups = int(group.max()) + 1
    keys = snap(p, nbins)
    code = (group * (nbins + 1) + keys[:, 0]) * (nbins + 1) + keys[:, 1]
    uniq, inv = np.unique(code, return_inverse=True)
    obs_counts = np.zeros((len(uniq), 3))
    np.add.at(obs_counts, (inv, obs), 1.0)
    counts = obs_counts.sum(axis=1)
    bin_group = uniq // ((nbins + 1) ** 2)
    kB = (uniq // (nbins + 1)) % (nbins + 1)
    kN = uniq % (nbins + 1)
    centers = np.stack([kB, kN, nbins - kB - kN], axis=1) / nbins
    mean_obs = obs_counts / counts[:, None]

    per_group = np.bincount(group, minlength=n_groups).astype(float)
    q_bar = np.stack(
        [np.bincount(group, weights=(obs == c).astype(float), minlength=n_groups) for c in range(3)],
        axis=1,
    ) / per_group[:, None]
    S = np.bincount(group, weights=quad(rule, centers[inv] - onehot(obs)), minlength=n_groups)
    U = sum(q_bar[:, c] * quad(rule, q_bar - np.eye(3)[c]) for c in range(3))
    Z = np.bincount(bin_group, weights=counts * quad(rule, q_bar[bin_group] - mean_obs),
                    minlength=n_groups)
    R = np.bincount(bin_group, weights=counts * quad(rule, centers - mean_obs),
                    minlength=n_groups)
    return {
        "S": S / per_group, "U": U, "Z": Z / per_group, "R": R / per_group,
        "q_bar": q_bar, "n_bins": np.bincount(bin_group, minlength=n_groups),
        "bin_counts": counts,
    }


def apply_map(coeffs, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped mapped forecasts (B, N, A) and their off-simplex flags."""
    c = np.asarray(coeffs, dtype=float)
    pB, pA = p[:, 0], p[:, 2]
    f = np.stack([np.ones_like(pB), pB, pA, pB * pB, pB * pA, pA * pA], axis=1)
    tB = f @ c[:6]
    tA = f @ c[6:]
    t = np.stack([tB, 1.0 - tB - tA, tA], axis=1)
    return t, (t < -ON_SIMPLEX_TOL).any(axis=1)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex."""
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    positive = u + (1.0 - css) / np.arange(1, 4) > 0.0
    rho = 2 - np.argmax(positive[:, ::-1], axis=1)
    lam = (1.0 - css[np.arange(len(v)), rho]) / (rho + 1)
    return np.maximum(v + lam[:, None], 0.0)


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in x])


def gaussian_ternary(mu, sigma, mu_c, sigma_c, q) -> tuple[np.ndarray, np.ndarray]:
    """Ternary forecasts and (xB, xA) thresholds of Gaussian records."""
    nd = NormalDist()
    zB, zA = nd.inv_cdf(q[0]), nd.inv_cdf(q[0] + q[1])
    m = (mu - mu_c) / sigma_c
    s = sigma / sigma_c
    pB = _std_normal_cdf((zB - m) / s)
    pA = _std_normal_cdf(-(zA - m) / s)
    p = np.stack([pB, 1.0 - pB - pA, pA], axis=1)
    return p, np.stack([mu_c + sigma_c * zB, mu_c + sigma_c * zA], axis=1)


def ensemble_ternary(members: np.ndarray, series: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """Member-count forecasts against linearly interpolated series quantiles."""
    ordered = np.sort(series, axis=1)
    n = ordered.shape[1]
    cols = []
    for c in (q[0], q[0] + q[1]):
        idx = c * (n - 1)
        lo = math.floor(idx)
        hi = min(lo + 1, n - 1)
        frac = idx - lo
        cols.append(ordered[:, lo] * (1.0 - frac) + ordered[:, hi] * frac)
    thresholds = np.stack(cols, axis=1)
    pB = (members <= thresholds[:, :1]).mean(axis=1)
    pA = (members > thresholds[:, 1:]).mean(axis=1)
    return np.stack([pB, 1.0 - pB - pA, pA], axis=1), thresholds


def categorise(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Category index of each value; values on a threshold break low."""
    return (values > thresholds[:, 0]).astype(np.int64) + (values > thresholds[:, 1])
