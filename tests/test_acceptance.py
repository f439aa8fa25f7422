"""End-to-end verification gate.

Twelve numbered checks, each printing one ``[NN] PASS/FAIL`` line (run
with ``-s`` to see them on success).  Every check is seeded, asserts a
fixed tolerance, and the timed ones enforce their runtime budget.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from uws.spectral import RankPolicy
from uws.hosvd import (
    hosvd_truncated,
    project_slice,
    reconstruct,
    reconstruct_slice,
    secondary_subspace,
)
from uws.ensemble import (
    ExtractionConfig,
    MEMORY_PRESETS,
    ModelWeights,
    adapt_coefficients,
    coefficient_parameter_count,
    extract_universal,
    load_weights,
    memory_savings,
    project_model,
    reconstruct_model,
    save_weights,
    stack_layer,
)
from uws.ensemble.container import build_container, parse_container
from uws.errors import ContainerError
from uws.theory import (
    BoundParameters,
    SyntheticEnsembleConfig,
    convergence_study,
    davis_kahan_check,
    sample_ensemble,
    theorem1_bounds,
    within_task_term,
)

from oracles import planted_ensemble


def _report(num: int, ok: bool, label: str, detail: str = "") -> None:
    line = f"[{num:2d}] {'PASS' if ok else 'FAIL'} — {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# shared planted ensemble: 205 models, 16 planted directions, 1e-3 noise
_PLANTED_SHAPES = {
    "inlet": (6, 48),
    "block0": (6, 48),
    "block1": (5, 40),
    "outlet": (6, 48),
}
_planted_cache: dict = {}


def _planted():
    if not _planted_cache:
        rng = np.random.default_rng(20416)
        layer_dicts, _, _ = planted_ensemble(rng, 205, _PLANTED_SHAPES, 16, noise=1e-3)
        weights = [
            ModelWeights(model_id=f"m{i:03d}", layers=dict(layers))
            for i, layers in enumerate(layer_dicts)
        ]
        _planted_cache["train"] = weights[:200]
        _planted_cache["held"] = weights[200:]
    return _planted_cache["train"], _planted_cache["held"]


def _planted_subspace():
    if "subspace" not in _planted_cache:
        train, _ = _planted()
        _planted_cache["subspace"] = extract_universal(
            train, ExtractionConfig(policy=RankPolicy.cumulative_variance(0.99))
        )
    return _planted_cache["subspace"]


def test_01_full_rank_decomposition_reconstructs_exactly():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst_rel = 0.0
    worst_orth = 0.0
    for i in range(100):
        order = 2 + (i % 2)
        shape = tuple(int(s) for s in rng.integers(2, 33, size=order))
        x = rng.standard_normal(shape)
        model = hosvd_truncated(
            x, RankPolicy.cumulative_variance(1.0)
        )
        rec = reconstruct(model)
        worst_rel = max(worst_rel, _rel(rec, x))
        for u in model.factors:
            gram = u.T @ u
            worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(u.shape[1])))))
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-8 and worst_orth <= 1e-10 and elapsed < 10.0
    _report(
        1,
        ok,
        "lossless full-rank decomposition on 100 random stacks",
        f"max rel err {worst_rel:.2e}, max orthonormality defect {worst_orth:.2e}, {elapsed:.1f}s",
    )


def test_02_truncation_matches_best_rank_k():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        r = int(rng.integers(3, 25))
        c = int(rng.integers(3, 25))
        x = rng.standard_normal((r, c))
        xc = x - x.mean()
        sigma = np.linalg.svd(xc, compute_uv=False)
        scale = float(np.linalg.norm(xc))
        for k in range(1, min(r, c) + 1):
            model = hosvd_truncated(x, RankPolicy.fixed_k(k), centering="global")
            err = float(np.linalg.norm(reconstruct(model) - x))
            best = float(np.sqrt(np.sum(sigma[k:] ** 2)))
            worst = max(worst, abs(err - best) / scale)
    ok = worst <= 1e-8
    _report(
        2,
        ok,
        "rank-k truncation error equals the best achievable on 50 matrices",
        f"max deviation {worst:.2e} of matrix scale",
    )


def test_03_vector_stacks_reduce_to_principal_components():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        t = int(rng.integers(30, 81))
        d = int(rng.integers(5, 17))
        k = int(rng.integers(2, min(d, 6)))
        x = rng.standard_normal((t, d))
        model = hosvd_truncated(x, RankPolicy.fixed_k(k), centering="feature", slab_extent=1)
        got = model.factors[-1]
        xc = x - x.mean(axis=0, keepdims=True)
        w, v = np.linalg.eigh(xc.T @ xc)
        v = v[:, np.argsort(w)[::-1]][:, :k]
        for j in range(k):
            col = v[:, j]
            if col[np.argmax(np.abs(col))] < 0:
                v[:, j] = -col
        worst = max(worst, float(np.max(np.abs(got - v))))
    ok = worst <= 1e-8
    _report(
        3,
        ok,
        "vector-stack factors match covariance eigenvectors on 20 stacks",
        f"max entry deviation {worst:.2e}",
    )


def test_04_planted_basis_recovered_and_held_out_models_rebuild():
    train, held = _planted()
    t0 = time.monotonic()
    u = extract_universal(
        train, ExtractionConfig(policy=RankPolicy.cumulative_variance(0.99))
    )
    _planted_cache["subspace"] = u
    ranks = {name: u.layer_models[name].spectra[-1].retained
             for name in u.included_layers}
    worst = 0.0
    for w in held:
        rebuilt = reconstruct_model(u, project_model(u, w))
        for name in u.included_layers:
            worst = max(worst, _rel(rebuilt.layers[name], w.layers[name]))
    elapsed = time.monotonic() - t0
    ok = (
        u.included_layers == ["block0", "block1"]
        and all(r == 16 for r in ranks.values())
        and worst <= 1e-2
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        "planted 16-direction basis found and held-out models rebuild",
        f"ranks {sorted(ranks.values())}, worst held-out rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_05_residual_directions_explain_an_order_of_magnitude_less():
    train, _ = _planted()
    u = _planted_subspace()
    worst_gap = math.inf
    for name in u.included_layers:
        stack = stack_layer(train, name)
        primary = u.layer_models[name]
        residual = secondary_subspace(stack, primary, k2=16)
        for w in train[:3]:
            slab = w.layers[name]
            p_err = _rel(
                reconstruct_slice(primary, project_slice(primary, slab)),
                w.layers[name],
            )
            s_err = _rel(
                reconstruct_slice(residual, project_slice(residual, slab)),
                w.layers[name],
            )
            worst_gap = min(worst_gap, s_err / p_err)
    ok = worst_gap >= 10.0
    _report(
        5,
        ok,
        "next-window subspace rebuilds at least 10x worse than the primary",
        f"smallest error ratio {worst_gap:.1f}x",
    )


def test_06_bound_formula_matches_hand_arithmetic():
    params = BoundParameters(
        b=1.0, delta=0.5, n_tasks=100, eta_bar=0.1, eta2_bar=0.01,
        gamma_k=0.5, c1=1.0, c2=1.0,
    )
    bounds = theorem1_bounds(params)
    op_hand = math.sqrt(math.log(2.0) / 100.0) + 2.0 * 1.0 * 0.1 + 0.01
    sub_hand = (2.0 / 0.5) * op_hand
    ok = (
        abs(bounds.op_bound - op_hand) <= 1e-5
        and bounds.subspace_bound is not None
        and abs(bounds.subspace_bound - sub_hand) <= 1e-5
    )
    _report(
        6,
        ok,
        "closed-form bound reproduces the hand-computed worked example",
        f"op {bounds.op_bound:.7f} (five-digit print 0.29324 is off by "
        f"{abs(bounds.op_bound - 0.29324):.1e} from rounding), "
        f"subspace {bounds.subspace_bound:.7f} vs 1.17297",
    )


def test_07_error_decays_at_root_t_then_floors_under_noise():
    t0 = time.monotonic()
    grid = [25, 50, 100, 200, 400]
    clean = convergence_study(64, 4, grid, 50, eta=0.0, seed=1234)
    noisy = convergence_study(64, 4, grid, 50, eta=0.2, seed=1234)
    floored = convergence_study(
        16, 1, [200, 400], 30, eta=0.2,
        norm_mode="constant", perturbation="radial", seed=77,
    )
    elapsed = time.monotonic() - t0
    slope_ok = clean.slope is not None and -0.65 <= clean.slope <= -0.35
    cap_ok = noisy.mean_op_error[400] <= 2.0 * noisy.within_task_floor
    level = floored.mean_op_error[400]
    flat_ok = abs(level - floored.mean_op_error[200]) <= 0.25 * floored.mean_op_error[200]
    floor = floored.within_task_floor
    attained_ok = 0.5 * floor <= level <= 2.0 * floor
    ok = slope_ok and cap_ok and flat_ok and attained_ok and elapsed < 60.0
    _report(
        7,
        ok,
        "clean error decays ~ 1/sqrt(T); noisy error plateaus within 2x of its floor",
        f"slope {clean.slope:.3f}, capped run {noisy.mean_op_error[400]:.3f} <= "
        f"{2 * noisy.within_task_floor:.2f}, floored run {level:.3f} vs floor {floor:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_08_projector_perturbation_inequality_never_violated():
    violations = 0
    worst_slack = math.inf
    for i in range(1000):
        rng = np.random.default_rng([8001, i])
        d = 6 + (i % 19)
        k = 1 + (i * 7) % (d - 1)
        g = rng.standard_normal((d, d))
        base = g @ g.T / d
        noise = rng.standard_normal((d, d))
        noise = (noise + noise.T) / 2.0
        noise /= np.max(np.abs(np.linalg.eigvalsh(noise)))
        strength = 10.0 ** (-(i % 7) / 2.0)
        rep = davis_kahan_check(base, base + strength * noise, k)
        if not rep.holds:
            violations += 1
        worst_slack = min(worst_slack, rep.rhs - rep.lhs)
    ok = violations == 0
    _report(
        8,
        ok,
        "subspace perturbation inequality holds on 1000 random triples",
        f"{violations} violations, smallest slack {worst_slack:.2e}",
    )


def test_09_moment_gap_stays_under_the_noise_budget():
    violations = 0
    worst_margin = math.inf
    modes = ("gaussian", "constant")
    perts = ("isotropic", "radial")
    for i in range(500):
        d = 4 + (i % 14)
        k = 1 + (i % min(d, 5))
        n_tasks = 3 + (i % 38)
        if i % 3 == 0:
            eta = 0.3 * (i % 7) / 6.0
        else:
            eta = np.random.default_rng([9000, i]).uniform(0.0, 0.4, size=n_tasks)
        cfg = SyntheticEnsembleConfig(
            d=d, k=k, n_tasks=n_tasks, eta=eta, seed=9000 + i,
            norm_mode=modes[i % 2], perturbation=perts[(i // 2) % 2],
        )
        ens = sample_ensemble(cfg)
        try:
            rep = within_task_term(ens.f_star, ens.f_hat, b=ens.b)
        except Exception:
            violations += 1
            continue
        if not rep.holds:
            violations += 1
        else:
            worst_margin = min(worst_margin, rep.cap + 1e-8 - rep.measured)
    ok = violations == 0
    _report(
        9,
        ok,
        "measured moment gap never exceeds its per-task noise cap on 500 ensembles",
        f"{violations} violations, smallest margin {worst_margin:.2e}",
    )


def test_10_memory_presets_reproduce_documented_ratios():
    worked = MEMORY_PRESETS["worked-example-126x"].ratio()
    adapters = MEMORY_PRESETS["adapter-bank-19x"].ratio()
    vision = MEMORY_PRESETS["vision-backbone-100x"].ratio()
    exact = (500 * 131072) / (262144 + 500 * 512)
    ok = (
        worked == exact
        and round(worked, 1) == 126.5
        and 19.0 <= adapters < 20.0
        and vision >= 100.0
        and all(p.description for p in MEMORY_PRESETS.values())
        and memory_savings(**MEMORY_PRESETS["worked-example-126x"].counts) == exact
    )
    _report(
        10,
        ok,
        "memory calculator hits 126.5x exactly, 19x and >=100x presets",
        f"worked {worked:.4f}, adapters {adapters:.2f}, vision {vision:.1f}",
    )


def test_11_container_survives_fuzzing_and_round_trips(tmp_path):
    rng = np.random.default_rng(1101)
    valid = []
    for i in range(12):
        layers = []
        for j in range(int(rng.integers(1, 5))):
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            dt = "f32" if rng.integers(2) else "f64"
            layers.append((f"layer{j}", rng.standard_normal((r, c)), dt))
        valid.append(build_container(f"model{i}", layers, meta={"tag": i} if i % 2 else None))

    unclassified = 0
    crashes = 0
    for it in range(10000):
        blob = bytearray(valid[it % len(valid)])
        kind = it % 3
        if kind == 0:
            blob = blob[: int(rng.integers(0, len(blob)))]
        elif kind == 1:
            blob += bytes(rng.integers(0, 256, size=int(rng.integers(1, 65)), dtype=np.uint8))
        else:
            pos = int(rng.integers(0, 12))
            blob[pos] ^= int(rng.integers(1, 256))
        try:
            parse_container(bytes(blob))
            unclassified += 1
        except ContainerError:
            pass
        except Exception:
            crashes += 1
    # arbitrary damage anywhere must still never escape the parse-error type
    for it in range(2000):
        blob = bytearray(valid[it % len(valid)])
        for _ in range(int(rng.integers(1, 4))):
            blob[int(rng.integers(0, len(blob)))] ^= int(rng.integers(1, 256))
        try:
            parse_container(bytes(blob))
        except ContainerError:
            pass
        except Exception:
            crashes += 1

    mismatches = 0
    for i in range(100):
        layers = {}
        dtypes = {}
        for j in range(int(rng.integers(1, 4))):
            dt = "f32" if rng.integers(2) else "f64"
            arr = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            layers[f"w{j}"] = arr.astype("<f4" if dt == "f32" else "<f8").astype(np.float64)
            dtypes[f"w{j}"] = dt
        w = ModelWeights(model_id=f"rt{i}", layers=layers, dtypes=dtypes)
        p = tmp_path / f"rt_{i}.uws"
        save_weights(w, p)
        first = p.read_bytes()
        loaded = load_weights(p)
        save_weights(loaded, p)
        if p.read_bytes() != first:
            mismatches += 1
        if any(not np.array_equal(loaded.layers[n], layers[n]) for n in layers):
            mismatches += 1
    ok = unclassified == 0 and crashes == 0 and mismatches == 0
    _report(
        11,
        ok,
        "10,000 mangled files all classified, parser total, 100 round trips bit-exact",
        f"{unclassified} unclassified, {crashes} crashes, {mismatches} round-trip mismatches",
    )


def test_12_coefficient_fits_agree_and_recover_planted_targets():
    u = _planted_subspace()
    layer = "block0"
    model = u.layer_models[layer]
    basis = model.factors[-1]
    rows, d, k = model.slab_extent, basis.shape[0], basis.shape[1]
    rng = np.random.default_rng(1201)
    mu_slab = np.broadcast_to(np.asarray(model.mu).reshape(1, -1), (rows, d))
    target = mu_slab + rng.standard_normal((rows, k)) @ basis.T
    x = rng.standard_normal((120, d))
    y = x @ target.T
    closed, closed_rep = adapt_coefficients(u, layer, x, y, method="closed_form")
    grad, _ = adapt_coefficients(u, layer, x, y, method="gradient", epochs=6000)
    agree = float(np.max(np.abs(closed.coeffs - grad.coeffs)))
    residual = closed_rep["residual_norm"]
    counter = coefficient_parameter_count(16, 600)
    ok = (
        agree <= 1e-6
        and residual < 1e-6
        and closed_rep["trainable_params"] == k == 16
        and counter == 9600
    )
    _report(
        12,
        ok,
        "closed-form and gradient fits agree; in-basis targets recovered",
        f"fit gap {agree:.2e}, residual {residual:.2e}, "
        f"9,600 tuned vs 86M full ({86_000_000 / counter:.0f}x fewer)",
    )
