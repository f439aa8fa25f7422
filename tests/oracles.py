"""Independent reference routes used by the test suite.

Everything in here is deliberately written the slow, obvious way (index
enumeration, dense eigensolves, hand arithmetic) so it shares no code
path with the library implementation it checks.  The exceptions are the
theory lab's per-trial loops, which draw through the library's
single-trial calls to check its batched studies bit for bit, and
:func:`lower_gram`, which builds the one Gram form the leading solve
takes.
"""

from __future__ import annotations

import numpy as np

from uws.spectral import GRAM_PANEL_COLS, LowerGram


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


def unfolding_svd(x: np.ndarray, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and left singular vectors of the textbook
    mode-``mode`` unfolding of ``x`` (De Lathauwer, De Moor and
    Vandewalle, 2000): the mode's index runs down the rows, the others
    along the columns, the earliest fastest."""
    m = np.reshape(np.moveaxis(x, mode - 1, 0), (x.shape[mode - 1], -1), order="F")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return s, u


def best_rank_k_error(m_centered: np.ndarray, k: int) -> float:
    """Frobenius error of the best rank-k approximation (tail of the
    singular spectrum), from a direct dense SVD."""
    s = np.linalg.svd(m_centered, compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def next_directions(m_centered: np.ndarray, r: int, k: int) -> np.ndarray:
    """The k right singular vectors of a centred matrix that follow its
    leading r, from a direct dense SVD, as sign-canonical columns: the
    residual window past a rank-r subspace."""
    _, _, vt = np.linalg.svd(m_centered, full_matrices=False)
    return sign_canonical(vt[r : r + k].T)


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

    spectrum, b, etas = config.spectrum, config.b, config.etas
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


def record_square_solves(monkeypatch) -> list:
    """Make ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` append ``(name,
    order)`` for every matrix they are called on to the returned list
    (until ``monkeypatch`` is undone)."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, np.shape(a)[0]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def lower_gram(c: np.ndarray, exponent: int = 0) -> LowerGram:
    """The :class:`~uws.spectral.LowerGram` of ``c.T @ c`` times
    ``2**exponent``, built as every Gram in the library is: ``zeros``,
    then ``add_gram_of``."""
    gram = LowerGram.zeros(c.shape[1])
    gram.add_gram_of(c)
    if exponent:
        gram.ldexp(exponent)
    return gram


def lower_gram_of(square: np.ndarray) -> LowerGram:
    """The :class:`~uws.spectral.LowerGram` whose panels are copies of the
    lower row panels of ``square``, each diagonal block's strict upper
    triangle included."""
    d = len(square)
    return LowerGram(d, [square[j0 : j0 + GRAM_PANEL_COLS, : j0 + GRAM_PANEL_COLS].copy()
                         for j0 in range(0, d, GRAM_PANEL_COLS)])


def spectrum_families(d: int) -> dict:
    """Eigenvalue profiles (length d) of the Gram matrices the leading
    solve and the Gram route must agree with the exact routes on."""
    i = np.arange(1.0, d + 1)
    c = 50.0
    return {
        "geometric": 0.8**i,
        "power_law": i**-2.0,
        "planted_gap": np.r_[[100.0, 80, 60, 50, 45, 40], np.geomspace(1.0, 0.1, d - 6)],
        # cut inside a three-member cluster by fixed_k(4)
        "cluster_at_cut": np.r_[[100.0, 90, 80], c, c * (1 - 1e-9), c * (1 - 2e-9),
                                np.geomspace(1.0, 0.1, d - 6)],
        "rank_deficient": np.r_[np.geomspace(1.0, 1e-2, 20), np.zeros(d - 20)],
        "flat": 1.0 + 1e-3 * np.random.default_rng(3).random(d),
    }


def full_storage_gram(x: np.ndarray, block_rows: int, width: int):
    """``(gram, mean)`` of the rows of ``x`` merged as a Gram stream merges
    them, blocks of ``block_rows`` rows less the first block's mean r, and
    centred once by ``n (s / n) (s / n).T`` for the column sums s of the
    rows less r, but into a full d x d array whose lower triangle gets one
    ``width``-row panel product at a time."""
    cols, rows = x.shape[1], len(x)
    gram, total = np.zeros((cols, cols)), np.zeros(cols)
    reference = x[:block_rows].mean(axis=0)
    for start in range(0, rows, block_rows):
        block = x[start : start + block_rows] - reference
        total += block.sum(axis=0)
        for j0 in range(0, cols, width):
            j1 = min(j0 + width, cols)
            gram[j0:j1, :j1] += block[:, j0:j1].T @ block[:, :j1]
    shift = total / rows
    outer = np.multiply.outer(shift, shift)
    outer *= -rows
    gram += outer
    return gram, reference + shift


def assert_spectra_agree(got, want):
    """Two ledgers of one stack (``ModeSpectrum``) that may store
    different depths agree: the stored values they share within 1e-12 *
    s_1, and the energy past those within 1e-12 of the total."""
    n = min(got.singular_values.size, want.singular_values.size)
    a, b = got.singular_values, want.singular_values
    assert np.max(np.abs(a[:n] - b[:n])) <= 1e-12 * b[0]
    rest = [float(np.sum(s[n:] ** 2)) + spec.tail for s, spec in ((a, got), (b, want))]
    assert abs(rest[0] - rest[1]) <= 1e-12 * (float(np.sum(b**2)) + want.tail)


def second_moment(vectors) -> np.ndarray:
    """(1/T) sum of v v^T over a list of 1-D vectors, symmetrised."""
    stack = np.stack(vectors)
    m = stack.T @ stack / len(stack)
    return (m + m.T) / 2.0


def top_k_basis(m: np.ndarray, k: int) -> np.ndarray:
    """The eigenvectors of the k largest eigenvalues of a symmetric matrix,
    as columns, in descending order."""
    w, v = np.linalg.eigh(m)
    return v[:, np.argsort(w)[::-1]][:, :k]


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||(I - A A^T) B||_2 of two d x k orthonormal bases: the largest
    principal sine between their spans."""
    return float(np.linalg.norm(b - a @ (a.T @ b), 2))


def convergence_cells_by_loop(d, k, t_grid, n_trials, *, eta=0.0, b=None, spectrum=None,
                              seed=0, norm_mode="gaussian", perturbation="isotropic",
                              delta=0.05, c1=1.0, c2=1.0):
    """Reference for ``uws.theory.convergence_study``'s cells, one trial at
    a time: the lists (T, trial, op_error, subspace_error) over the (T, trial)
    cells, each ensemble drawn by ``sample_ensemble`` and its operators built
    by the references above, and the dict of each T's ``theorem1_bounds``
    of the scalar eta (eta_bar = eta, eta2_bar = eta * eta)."""
    from uws.spectral import operator_norm
    from uws.tensor import finite_entries
    from uws.theory import (BoundParameters, SyntheticEnsembleConfig, sample_ensemble,
                            theorem1_bounds)

    cells, bounds = [], {}
    for t in t_grid:
        config = SyntheticEnsembleConfig(d=d, k=k, n_tasks=t, b=b, eta=eta, spectrum=spectrum,
                                         norm_mode=norm_mode, perturbation=perturbation)
        for trial in range(n_trials):
            ens = sample_ensemble(config, rng=np.random.default_rng([seed, trial, t]))
            finite_entries(ens.f_hat, "vectors")
            learned = second_moment(list(ens.f_hat))
            bounds[t] = theorem1_bounds(BoundParameters(
                b=config.b, delta=delta, n_tasks=t, eta_bar=config.eta,
                eta2_bar=config.eta * config.eta,
                gamma_k=config.gamma if config.gamma > 0 else None, c1=c1, c2=c2))
            cells.append((t, trial, operator_norm(learned - ens.population),
                          subspace_distance(top_k_basis(learned, k), ens.basis[:, :k])))
    return [list(column) for column in zip(*cells)] + [bounds]


def davis_kahan_reports_by_loop(d, k, perturb, trials, seed):
    """Reference for ``uws.theory.davis_kahan_study``: one
    ``davis_kahan_check`` per trial on the pair that trial draws."""
    from uws.spectral import operator_norm
    from uws.theory import davis_kahan_check

    reports = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        g = rng.standard_normal((d, d))
        base = g @ g.T / d
        noise = rng.standard_normal((d, d))
        noise = (noise + noise.T) / 2.0
        reports.append(davis_kahan_check(base, base + perturb * (noise / operator_norm(noise)), k))
    return reports
