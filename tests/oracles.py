"""Independent reference routes used by the test suite.

Everything in here is deliberately written the slow, obvious way (index
enumeration, dense eigensolves, hand arithmetic) so it shares no code
path with the library implementation it checks.
"""

from __future__ import annotations

import numpy as np


def unfold_by_enumeration(arr: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization by brute-force index walking.

    ``mode`` is 1-based.  Column ordering: the remaining modes keep their
    original order and the first remaining mode varies fastest.
    """
    n = mode - 1
    rest = [ax for ax in range(arr.ndim) if ax != n]
    ncols = 1
    for ax in rest:
        ncols *= arr.shape[ax]
    out = np.zeros((arr.shape[n], ncols), dtype=arr.dtype)
    for idx in np.ndindex(*arr.shape):
        col = 0
        stride = 1
        for ax in rest:
            col += idx[ax] * stride
            stride *= arr.shape[ax]
        out[idx[n], col] = arr[idx]
    return out


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix, Haar-distributed (QR with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def haar_columns(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n x k matrix with orthonormal, Haar-distributed columns."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def sign_canonical(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is nonnegative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def covariance_principal_directions(x_centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors/values of X^T X for a centered sample stack X (n x d),
    sorted by decreasing eigenvalue.  Independent PCA route."""
    cov = x_centered.T @ x_centered
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    return v[:, order], w[order]


def best_rank_k_error(m_centered: np.ndarray, k: int) -> float:
    """Frobenius error of the best rank-k approximation (tail of the
    singular spectrum), from a direct dense SVD."""
    s = np.linalg.svd(m_centered, compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def planted_ensemble(
    rng: np.random.Generator,
    n_models: int,
    layer_shapes: dict[str, tuple[int, int]],
    k: int,
    noise: float = 1e-3,
    coeff_scale: float = 1.0,
):
    """Synthetic per-layer weight ensemble with a planted feature subspace.

    Every layer ``name`` of every model is built as

        W = ones(r,1) @ mean_row + C @ Q^T + noise_rel * G

    with a shared orthonormal ``Q`` (d x k) per layer, per-model random
    coefficients ``C`` (r x k), a constant-row mean (so feature-wise
    centering removes it exactly), and relative Gaussian noise.  Returns
    ``(layers_per_model, bases, mean_rows)`` where ``layers_per_model`` is
    a list of dicts name -> matrix.
    """
    bases = {}
    mean_rows = {}
    for name, (r, d) in layer_shapes.items():
        bases[name] = haar_columns(d, k, rng)
        mean_rows[name] = rng.standard_normal(d)
    models = []
    for _ in range(n_models):
        layers = {}
        for name, (r, d) in layer_shapes.items():
            c = coeff_scale * rng.standard_normal((r, k))
            signal = np.outer(np.ones(r), mean_rows[name]) + c @ bases[name].T
            g = rng.standard_normal((r, d))
            g *= noise * np.linalg.norm(signal) / np.linalg.norm(g)
            layers[name] = signal + g
        models.append(layers)
    return models, bases, mean_rows


def synthetic_tasks_by_loop(config, rng: np.random.Generator):
    """Reference draw of a synthetic task ensemble, one task at a time.

    The per-task loop the vectorized ``uws.theory.sample_ensemble`` must
    reproduce: a QR-with-sign-fix Haar basis, then for each task its
    coefficients (a unit k-vector in constant mode, ``len(spectrum)``
    normals otherwise) and a unit perturbation direction in R^d, every
    unit vector redrawn on the spot if its norm is <= 1e-12.  Returns
    ``(basis, f_stars, f_hats)``; the last two are lists of 1-D arrays.
    """

    def unit_vector(n):
        while True:
            g = rng.standard_normal(n)
            norm = np.linalg.norm(g)
            if norm > 1e-12:
                return g / norm

    spectrum = config.resolved_spectrum()
    b = config.resolved_b()
    etas = config.resolved_etas()
    d, k = config.d, config.k
    q, r = np.linalg.qr(rng.standard_normal((d, spectrum.size)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    basis = q * signs
    scaled_basis = basis * np.sqrt(spectrum)
    f_stars, f_hats = [], []
    for t in range(config.n_tasks):
        if config.norm_mode == "constant":
            f_star = b * (basis[:, :k] @ unit_vector(k))
        else:
            f_star = scaled_basis @ rng.standard_normal(spectrum.size)
            norm = np.linalg.norm(f_star)
            if norm > b:
                f_star = f_star * (b / norm)
        direction = unit_vector(d)
        eta_t = float(etas[t])
        norm = np.linalg.norm(f_star)
        if config.perturbation == "radial" and norm > 1e-300:
            f_hat = f_star * (1.0 + eta_t / norm)
        else:
            f_hat = f_star + eta_t * direction
        f_stars.append(f_star)
        f_hats.append(f_hat)
    return basis, f_stars, f_hats
