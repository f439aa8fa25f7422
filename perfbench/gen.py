"""Seeded benchmark inputs with their ground truth.

Every model of the family has the same four layers.  Each layer is a
planted per-layer basis ``B`` (cols x rank, orthonormal columns) times
per-model coefficients ``C`` (rows x rank, standard normal), plus
isotropic Gaussian noise::

    W = C @ B.T + noise * E

Everything is drawn from ``numpy.random.default_rng`` keyed by the
workload seed, a group code and the model index, so the same seed gives
the same files whatever else a run does.  The planted bases are kept so
the correctness checks have an oracle; the bounds below are derived from
the family parameters alone, never from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from uws.ensemble import ModelWeights, save_weights

LAYERS = ("embed", "blk0", "blk1", "head")

# group codes keep the model sets of one seed disjoint
ENSEMBLE, SEEN, HELD_OUT, BASES, ADAPT = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class Family:
    rows: int = 64
    cols: int = 1024
    rank: int = 16
    noise: float = 0.01

    def residual_bound(self) -> float:
        """Upper bound on ||W - W_hat|| / ||W - mu|| for a held-out model.

        The expected ratio is the out-of-subspace noise over the whole
        centred model, noise * sqrt(cols - rank) / sqrt(rank + cols * noise^2);
        the coefficient norm concentrates to about 2% at the default
        sizes, and basis-estimation error adds well under 1%, so a 30%
        margin is never reached by a correct reconstruction.
        """
        r0 = self.noise * math.sqrt(self.cols - self.rank) / math.sqrt(
            self.rank + self.cols * self.noise**2
        )
        return 1.3 * r0

    def angle_bound(self, stacked_rows: int) -> float:
        """Upper bound on the sine of the largest principal angle between
        an extracted feature basis and the planted one, for a stack of
        ``stacked_rows`` rows: four times the noise-to-signal ratio of one
        direction, noise * sqrt(cols / stacked_rows)."""
        return 4.0 * self.noise * math.sqrt(self.cols / stacked_rows)


def planted_bases(seed: int, family: Family) -> dict:
    rng = np.random.default_rng([seed, BASES])
    bases = {}
    for name in LAYERS:
        q, r = np.linalg.qr(rng.standard_normal((family.cols, family.rank)))
        bases[name] = q * np.sign(np.diag(r))
    return bases


def model_layers(seed: int, family: Family, bases: dict, group: int, index: int) -> dict:
    rng = np.random.default_rng([seed, group, index])
    layers = {}
    for name in LAYERS:
        coeffs = rng.standard_normal((family.rows, family.rank))
        noise = rng.standard_normal((family.rows, family.cols))
        layers[name] = coeffs @ bases[name].T + family.noise * noise
    return layers


def write_models(directory, seed: int, family: Family, bases: dict, group: int, count: int):
    """Write ``count`` models of one group as f32 weight containers with
    the code under test and return their paths in index order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = directory / f"m{index:04d}.uws"
        layers = model_layers(seed, family, bases, group, index)
        save_weights(
            ModelWeights(
                model_id=f"g{group}-m{index:04d}",
                layers=layers,
                dtypes={name: "f32" for name in layers},
            ),
            path,
        )
        paths.append(path)
    return paths


def adapt_inputs(seed: int, family: Family, samples: int = 512) -> np.ndarray:
    """The design matrix X (samples x cols) for coefficient adaptation."""
    return np.random.default_rng([seed, ADAPT]).standard_normal((samples, family.cols))


def max_principal_sine(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of two
    matrices with orthonormal columns."""
    cosines = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(math.sqrt(max(0.0, 1.0 - float(cosines.min()) ** 2)))
