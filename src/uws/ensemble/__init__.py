"""Ensemble operations: stacking per-layer weights from many models,
extracting a shared low-rank subspace per layer, and moving individual
models in and out of that subspace (projection, reconstruction, merging,
coefficient-only adaptation).

Weights, subspaces, and coefficient sets all live in the same binary
container format (see :mod:`uws.ensemble.container`).  A subspace file
holds per layer only what its readers read: the mean (``mu/``), the
non-stacking factors (``U/``), their leading spectra
(``ledger/.../sv/``) and the energy of the rest (``ledger/.../tail/``).
Coefficient files use ``coef/`` (per layer, r x k for order-2 stacking
and k_2 x k_3 for order 3) and ``raw/``.  Either file's meta keeps only
what its entries cannot say; the loaders derive the rest (included
layers, ranks, ratios, ids) and refuse any entry or meta key that the
writers do not write.
"""

from collections.abc import Mapping, MutableMapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from types import MappingProxyType

import numpy as np

from ..errors import ContainerError, InvalidArgumentError, NumericalFailureError
from ..hosvd import (
    CENTERINGS,
    GramStream,
    ModeSpectrum,
    SliceCoefficients,
    SubspaceModel,
    exact_subspace,
    gram_eligible,
    project_slice,
    reconstruct_slice,
)
from ..spectral import (DEFAULT_POLICY, RankPolicy, check_policy, orthonormality_defect,
                        select_rank)
from ..tensor import (NONNEGATIVE, POSITIVE, as_real, finite_entries, int_at_least, one_of,
                      real_in)
from .container import HEADER_LEN, ContainerDocument, read_container, write_container

SUBSPACE_FORMAT_VERSION = 7

#: The largest ``max |V^T V - I|`` a loaded factor may have.  Extraction's
#: own factors are orthonormal to about 1e-15 (``uws extract`` prints the
#: defect); projection is an orthogonal projection only if V is.
ORTHONORMALITY_TOLERANCE = 1e-10

__all__ = [
    "ModelWeights",
    "ExtractionConfig",
    "UniversalSubspace",
    "ScreeReport",
    "CoefficientSet",
    "MemoryPreset",
    "MEMORY_PRESETS",
    "load_weights",
    "save_weights",
    "stack_layer",
    "extract_universal",
    "scree_report",
    "project_model",
    "reconstruct_model",
    "merge_models",
    "merge_weights",
    "memory_savings",
    "coefficient_parameter_count",
    "adapt_coefficients",
    "save_subspace",
    "load_subspace",
    "save_coefficients",
    "load_coefficients",
]


# --------------------------------------------------------------------- weights


def _precisions(dtypes) -> dict:
    """``dtypes``, refused with InvalidArgumentError unless it is a
    mapping (a model's ``dtypes`` included) of "f32" or "f64" by layer name."""
    if not isinstance(dtypes, Mapping):
        raise InvalidArgumentError(
            f"dtypes must be a dict of precisions by layer name, got {type(dtypes).__name__}")
    for name, dtype in dtypes.items():
        if not isinstance(dtype, str) or dtype not in ("f32", "f64"):
            raise InvalidArgumentError(f"layer {name!r}: dtype must be f32 or f64, got {dtype!r}")
    return dtypes


def _held(name, arr, dtype=None) -> np.ndarray:
    """Layer ``name`` as a :class:`ModelWeights` holds it: a float32 array
    as it is unless ``dtype`` is "f64", anything else as float64
    (:func:`~uws.tensor.as_real`, not copied if it already is) and then
    cast to float32 if ``dtype`` is "f32".  Refused with
    InvalidArgumentError naming it unless it is a nonempty 2-D real
    matrix, or where the cast takes a finite value beyond the f32 range."""
    if not isinstance(name, str):
        raise InvalidArgumentError("layers must be a dict of matrices by name")
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float32 and dtype != "f64"):
        arr = as_real(arr, f"layer {name!r}")
        if dtype == "f32":
            with np.errstate(over="ignore"):
                cast = arr.astype(np.float32)
            if not np.isfinite(cast).all() and np.isfinite(arr[~np.isfinite(cast)]).any():
                raise InvalidArgumentError(f"layer {name!r} has values outside the f32 range")
            arr = cast
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidArgumentError(
            f"layer {name!r}: expected a nonempty 2-D matrix, got shape {arr.shape}")
    return arr


class _Layers(MutableMapping):
    """The layers of a :class:`ModelWeights` by name, in order.  ``held``
    is the dict of the arrays as held, each float32 or float64; reading a
    layer gives float64, the held array itself where it is float64 and a
    new read-only float64 copy of a float32 one, so a write into that
    copy raises ValueError rather than being lost.  Setting a layer holds
    it by the constructor's rule and ``del`` removes it."""

    __slots__ = ("held",)

    def __init__(self, held: dict):
        self.held = held

    def __getitem__(self, name) -> np.ndarray:
        arr = self.held[name]
        if arr.dtype == np.float64:
            return arr
        arr = arr.astype(np.float64)
        arr.flags.writeable = False
        return arr

    def __setitem__(self, name, arr) -> None:
        self.held[name] = _held(name, arr)

    def __delitem__(self, name) -> None:
        del self.held[name]

    def __contains__(self, name) -> bool:
        return name in self.held

    def __iter__(self):
        return iter(self.held)

    def __len__(self) -> int:
        return len(self.held)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.held!r})"


class ModelWeights:
    """One model's weight matrices by name, each nonempty, 2-D and real;
    a layer that is not raises InvalidArgumentError naming it.

    ``layers`` is given as a dict (or as another model's ``layers``) and
    kept as a :class:`_Layers`.  Each layer is held at the precision it
    is saved at, a float32 matrix as it is, not copied, and every other
    one as float64, unless ``dtypes``, a dict of "f32" or "f64" by layer
    name, casts it once, here (a name that is not a layer is ignored).
    Every layer reads as float64.
    """

    def __init__(self, model_id: str, layers: dict, dtypes: dict | None = None):
        if not isinstance(model_id, str):
            raise InvalidArgumentError("model_id must be a string")
        layers = layers.held if isinstance(layers, _Layers) else layers
        if not isinstance(layers, dict):
            raise InvalidArgumentError("layers must be a dict of matrices by name")
        dtypes = _precisions({} if dtypes is None else dtypes)
        self.model_id = model_id
        self.layers = _Layers({name: _held(name, arr, dtypes.get(name))
                               for name, arr in layers.items()})

    def __repr__(self) -> str:
        return f"ModelWeights(model_id={self.model_id!r}, layers={self.layers!r})"

    @property
    def dtypes(self) -> MappingProxyType:
        """Each layer's precision, "f32" or "f64", as its held array has it."""
        return MappingProxyType({name: "f32" if arr.dtype == np.float32 else "f64"
                                 for name, arr in self.layers.held.items()})

    @property
    def shapes(self) -> dict:
        """Each layer's shape, as a weights file's manifest gives it."""
        return {name: arr.shape for name, arr in self.layers.held.items()}


def load_weights(path) -> ModelWeights:
    """Read a weights container.  Its float32 matrices are held as the
    document's read-only views of the one buffer they were read into, so
    nothing is copied; float64 ones likewise."""
    doc = _read(path)
    return ModelWeights(doc.model_id, doc.layers)


def save_weights(weights: ModelWeights, path) -> None:
    """Write a weights container, each layer at its held precision."""
    write_container(path, weights.model_id, weights.layers.held.items())


# -------------------------------------------------------------------- stacking


def _require_layers(owner: str, shapes: dict, expected: dict, reference: str) -> None:
    """The one rule of which layers a model has: ``shapes`` (name to
    shape) must name exactly the ``expected`` names, each of the shape
    ``expected`` gives it where that is not None.  Otherwise one
    InvalidArgumentError names ``owner`` and every missing, extra and
    mismatched name."""
    problems = [f"missing {name!r}" for name in expected if name not in shapes]
    problems += [f"extra {name!r}" for name in shapes if name not in expected]
    problems += [f"{name!r} of shape {shapes[name]}, not {want}" for name, want in expected.items()
                 if name in shapes and want not in (None, shapes[name])]
    if problems:
        raise InvalidArgumentError(f"{owner} do not fit {reference}: {'; '.join(problems)}")


class _Stack:
    """The exact route's stream (``add(slab)``, ``decompose(policy, *,
    centering)``): one float64 T x r x d array that :meth:`add` fills a slab
    at a time and :meth:`decompose` centres in place through
    :func:`~uws.hosvd.exact_subspace`, as ``x``: its (T*r) x d rows at order 2."""

    def __init__(self, n_models: int, shape: tuple, order: int):
        slabs = np.empty((n_models, *shape))
        self.x = slabs.reshape(-1, shape[1]) if order == 2 else slabs
        self._slots = iter(slabs)  # each model's r x d view into the stack, in turn

    def add(self, slab) -> None:
        next(self._slots)[...] = slab

    def decompose(self, policy, *, centering) -> SubspaceModel:
        return exact_subspace(self.x, policy, centering=centering)


def stack_layer(models, layer: str, order: int = 2) -> np.ndarray:
    """Stack one named layer across models as extraction's exact route
    does (:class:`_Stack`): (T*r) x d at order 2, T x r x d at order 3.
    As in extraction, every model must have the first model's layers,
    each of the same shape, and ``layer`` must be one of them."""
    order = ExtractionConfig(order=order).order  # the one rule for a stacking order
    if not models:
        raise InvalidArgumentError("no models to stack")
    expected = {layer: None, **models[0].shapes}  # a layer the first model lacks is missing
    for m in models:
        _require_layers(f"the layers of model {m.model_id!r}", m.shapes, expected,
                        f"those of model {models[0].model_id!r}, the first, and {layer!r}")
    stack = _Stack(len(models), models[0].shapes[layer], order)
    for m in models:
        stack.add(m.layers.held[layer])
    return stack.x


# ------------------------------------------------------------------ extraction


#: The stacking orders extraction takes: rows concatenated (2) or a new mode (3).
ORDERS = (2, 3)


def nonempty_label(value, name: str) -> str:
    """``value`` if it is a non-empty string (an architecture label); refused naming ``name``."""
    if not isinstance(value, str) or not value:
        raise InvalidArgumentError(f"{name} must be a non-empty string, got {value!r}")
    return value


@dataclass
class ExtractionConfig:
    """How to build a subspace from an ensemble.

    ``exclude_layers=None`` applies the default rule (drop the first and
    last layer of the shared layer list); pass a tuple or list of names —
    possibly empty — to override it.  An extracted subspace keeps the
    policy and architecture id; its layer models and shapes give the rest.
    """

    policy: RankPolicy = DEFAULT_POLICY
    order: int = 2
    centering: str = "feature"
    exclude_layers: tuple | None = None
    architecture_id: str = "ensemble"

    def __post_init__(self):
        check_policy(self.policy)
        self.order = int_at_least(one_of(self.order, "order", ORDERS), "order", 2)
        one_of(self.centering, "centering", CENTERINGS)
        if self.exclude_layers is not None:
            names = self.exclude_layers
            if not isinstance(names, (tuple, list)) or not all(isinstance(n, str) for n in names):
                raise InvalidArgumentError(
                    f"exclude_layers must be a tuple of layer names, got {names!r}")
            self.exclude_layers = tuple(names)
        nonempty_label(self.architecture_id, "architecture_id")


@dataclass
class UniversalSubspace:
    """Per-layer subspace models plus the bookkeeping needed to project
    arbitrary models of the same architecture: the architecture's layers,
    in order, each mapped to its (rows, cols) shape, the ids of the
    models it was extracted from, the rank policy and the architecture
    id.  The layers with a model are the included ones and the rest are
    excluded; the stacking order and centering are the layer models'.
    A subspace with no layer model raises InvalidArgumentError."""

    layer_models: dict
    layer_shapes: dict
    provenance: list
    policy: RankPolicy
    architecture_id: str

    def __post_init__(self):
        if not self.layer_models:
            raise InvalidArgumentError("a subspace needs at least one layer model")

    @property
    def included_layers(self) -> list:
        return [name for name in self.layer_shapes if name in self.layer_models]

    @property
    def excluded_layers(self) -> list:
        return [name for name in self.layer_shapes if name not in self.layer_models]

    @property
    def order(self) -> int:
        return next(iter(self.layer_models.values())).order

    @property
    def centering(self) -> str:
        """"global" where the mean is one scalar, else "feature"."""
        return "global" if np.ndim(next(iter(self.layer_models.values())).mu) == 0 else "feature"


def _partition_layers(first, config):
    candidates = list(first.shapes)
    if config.exclude_layers is None:
        excluded = set(candidates[:1] + candidates[-1:]) if len(candidates) > 2 else set(candidates)
    else:
        unknown = [n for n in config.exclude_layers if n not in candidates]
        if unknown:
            raise InvalidArgumentError(
                f"excluded layers not present in the ensemble: {', '.join(unknown)}"
            )
        excluded = set(config.exclude_layers)
    included = [n for n in candidates if n not in excluded]
    if not included:
        raise InvalidArgumentError(
            "layer exclusion leaves nothing to extract from "
            f"(layers: {', '.join(candidates) or 'none'})"
        )
    return included


def _read(model, names=None):
    """The container document of a model: of its held arrays for a model
    given in memory, of its weights file with the ``names`` layers read
    (all by default) otherwise.  Either way its ``layers`` are float32 or
    float64 as held or stored, converted only where used.  A file whose
    meta has a ``kind`` (a subspace or coefficient file) raises
    ContainerError."""
    if isinstance(model, ModelWeights):
        return ContainerDocument(model.model_id, model.layers.held, None, model.shapes)
    doc = read_container(model, names)
    if doc.meta is not None and "kind" in doc.meta:
        raise ContainerError(f"{model} is a {doc.meta['kind']!r} container, not weights",
                             HEADER_LEN)
    return doc


def _routes(shape, n_models: int, config: ExtractionConfig) -> list:
    """Makers of the streams a layer of ``shape`` tries, in order: a
    :class:`~uws.hosvd.GramStream` where the order-2 stack of ``n_models``
    slabs is :func:`~uws.hosvd.gram_eligible`, then a :class:`_Stack`."""
    stack = partial(_Stack, n_models, shape, config.order)
    if config.order == 2 and gram_eligible((n_models * shape[0], shape[1]), config.policy):
        return [partial(GramStream, shape[1]), stack]
    return [stack]


def extract_universal(models, config: ExtractionConfig | None = None) -> UniversalSubspace:
    """Decompose every included layer's cross-model stack.

    ``models`` is a sequence of :class:`ModelWeights` or of paths to
    weights files.  Every model must have exactly the first model's
    layers, each of the same shape, excluded layers included.  The
    subspace's ``layer_shapes`` and the default exclusion rule follow the
    first model's layers and shapes, read from its manifest.

    Each layer tries the streams :func:`_routes` lists until one returns a
    model, not None, in one pass each, which holds only its stream and one
    model.  The first pass also reads and checks every entry no other pass
    reads, and every model's layer names and shapes; a model whose id or
    layer shape differs in a later pass raises ContainerError.
    """
    config = config if config is not None else ExtractionConfig()
    models = list(models)
    if not models:
        raise InvalidArgumentError("cannot extract a subspace from zero models")
    head = _read(models[0], ())
    included = _partition_layers(head, config)
    layer_models, ids = {}, []  # ids: the models' ids, as the first pass read them
    for name in included:
        for make in _routes(head.shapes[name], len(models), config):
            names = (name,) if ids else set(head.shapes) - set(included[1:])
            stream = make()
            for i, item in enumerate(models):
                model = _read(item, names)
                if i == len(ids):
                    _require_layers(f"the layers of model {model.model_id!r}", model.shapes,
                                    head.shapes, f"those of model {head.model_id!r}, the first")
                    ids.append(model.model_id)
                _require((model.model_id, model.shapes.get(name)) == (ids[i], head.shapes[name]),
                         f"model {ids[i]!r} changed between layer passes: it reads as "
                         f"{model.model_id!r}, with layer {name!r} of shape "
                         f"{model.shapes.get(name)}")
                stream.add(model.layers[name])
                del model  # free its payload before the next model is read
            try:
                layer_models[name] = stream.decompose(config.policy, centering=config.centering)
            except NumericalFailureError as exc:
                if isinstance(exc.__cause__, np.linalg.LinAlgError):
                    raise  # LAPACK failed, not the layer's data: the layer is not named
                raise NumericalFailureError(f"layer {name!r}: {exc}") from exc
            del stream  # a declined stream is freed before the next one is made
            if layer_models[name] is not None:
                break
    return UniversalSubspace(layer_models, dict(head.shapes), ids, config.policy,
                             config.architecture_id)


# ---------------------------------------------------------------- scree report


@dataclass(eq=False)
class ScreeReport:
    """The per-component mean/std across layers of the feature-mode
    variance ratios (each layer's ``spectra[-1].ratios``) over the
    components that every layer stores, and ``aggregate_tail``, the mean
    share of everything past those (the stored components beyond them
    and each layer's tail)."""

    aggregate_ratios: np.ndarray
    aggregate_std: np.ndarray
    aggregate_tail: float


def scree_report(u: UniversalSubspace) -> ScreeReport:
    spectra = [model.spectra[-1] for model in u.layer_models.values()]
    width = min(len(spec.ratios) for spec in spectra)
    table = np.array([spec.ratios[:width] for spec in spectra])
    rest = [float(np.sum(spec.ratios[width:])) + spec.tail_ratio for spec in spectra]
    return ScreeReport(aggregate_ratios=table.mean(axis=0), aggregate_std=table.std(axis=0),
                       aggregate_tail=float(np.mean(rest)))


# ------------------------------------------------------- project / reconstruct


@dataclass(eq=False)
class CoefficientSet:
    """A model expressed as per-layer subspace coefficients, with excluded
    layers carried through verbatim (by reference, not copied): each
    ``passthrough`` array keeps its precision, the model's as held or a
    loaded ``raw/`` entry's as stored.  ``dtypes`` maps each projected
    layer, and only those, to the precision it is rebuilt at, "f32" or
    "f64" ("f64" where it is not given)."""

    model_id: str
    coefficients: dict
    passthrough: dict
    dtypes: dict = field(default_factory=dict)

    def __post_init__(self):
        extra = [name for name in _precisions(self.dtypes) if name not in self.coefficients]
        if extra:
            raise InvalidArgumentError(f"dtypes names {extra}, which are not projected layers")
        self.dtypes = {name: self.dtypes.get(name, "f64") for name in self.coefficients}


def _model_layers(u: UniversalSubspace):
    """The layers of a model that fits ``u``, exactly its
    ``layer_shapes``, each of its shape there, and how to name them."""
    return u.layer_shapes, f"the subspace's layers {list(u.layer_shapes)}"


def project_model(u: UniversalSubspace, weights: ModelWeights) -> CoefficientSet:
    """Express each included layer in its layer subspace.

    The model must have exactly the subspace's ``layer_shapes`` layers,
    each of its shape there, and finite, or InvalidArgumentError is
    raised.  The excluded layers ride along unchanged, as the model's own
    arrays, so the model can be rebuilt in full.
    """
    _require_layers(f"the layers of model {weights.model_id!r}", weights.shapes, *_model_layers(u))
    held = weights.layers.held
    for name in u.excluded_layers:
        finite_entries(held[name], f"layer {name!r} of model {weights.model_id!r}")
    coefficients = {name: project_slice(u.layer_models[name], held[name])
                    for name in u.included_layers}
    passthrough = {name: held[name] for name in u.excluded_layers}
    precisions = weights.dtypes
    return CoefficientSet(weights.model_id, coefficients, passthrough,
                          {name: precisions[name] for name in coefficients})


def reconstruct_model(u: UniversalSubspace, coeffs: CoefficientSet) -> ModelWeights:
    """Rebuild full weight matrices from subspace coefficients; passthrough
    layers are the coefficient set's own arrays.  As its file's entries,
    a coefficient set must hold a ``coef/L`` block of the layer's
    coefficient shape for exactly the included layers and a ``raw/L``
    matrix of the layer's shape for exactly the excluded ones, or
    InvalidArgumentError is raised."""
    expected = {f"coef/{name}": (u.layer_shapes[name][0], *m.ranks) if m.order == 2 else m.ranks
                for name, m in u.layer_models.items()}
    expected.update((f"raw/{name}", u.layer_shapes[name]) for name in u.excluded_layers)
    shapes = {f"coef/{name}": np.shape(c.coeffs) for name, c in coeffs.coefficients.items()}
    shapes.update((f"raw/{name}", np.shape(arr)) for name, arr in coeffs.passthrough.items())
    _require_layers(f"the entries of coefficients {coeffs.model_id!r}", shapes, expected,
                    f"the subspace's layers {list(u.layer_shapes)} (coef/ for each included "
                    "layer, raw/ for each excluded one)")
    layers = {
        name: reconstruct_slice(u.layer_models[name], coeffs.coefficients[name])
        if name in u.layer_models else coeffs.passthrough[name]
        for name in u.layer_shapes
    }
    return ModelWeights(model_id=coeffs.model_id, layers=layers, dtypes=coeffs.dtypes)


# --------------------------------------------------------------------- merging


def merge_weights(weights, t: int) -> np.ndarray:
    """The convex weights of a merge of ``t`` models, an int >= 1:
    uniform when ``weights`` is None, else ``t`` finite, nonnegative
    values that sum to 1 (within 1e-8).  Raises InvalidArgumentError
    otherwise."""
    t = int_at_least(t, "t", 1)
    if weights is None:
        return np.full(t, 1.0 / t)
    weights = as_real(weights, "weights")
    if weights.shape != (t,):
        raise InvalidArgumentError(f"got {weights.size} weights for {t} models")
    finite_entries(weights, "weights", *NONNEGATIVE)
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if abs(total - 1.0) > 1e-8:
        raise InvalidArgumentError(f"merge weights must sum to 1, got {total!r}")
    return weights


def merge_models(u, models, weights=None) -> ModelWeights:
    """Average models inside the subspace.

    ``models`` is a sequence of :class:`ModelWeights` or of paths to
    weights files; the weights are checked (:func:`merge_weights`) before
    any is read.  Every layer is averaged with the given convex weights
    (uniform by default) as a running weighted sum over the models, read
    one at a time, and the mean model is projected and reconstructed
    once.  Because projection is affine, this equals combining the
    models' coefficients with the same weights.  Every model must have
    exactly the subspace's ``layer_shapes`` layers, each of its shape
    there, as in :func:`project_model`, so every excluded layer is
    averaged elementwise and carried through; otherwise, or where a
    layer of the mean is not finite, InvalidArgumentError.
    """
    models = list(models)
    if len(models) < 2:
        raise InvalidArgumentError(f"merging needs at least two models, got {len(models)}")
    weights = merge_weights(weights, len(models))
    sums = {name: np.zeros(shape) for name, shape in u.layer_shapes.items()}
    ids = []
    for w, item in zip(weights, models):
        model = _read(item)
        _require_layers(f"the layers of model {model.model_id!r}", model.shapes, *_model_layers(u))
        ids.append(model.model_id)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is refused below
            for name, total in sums.items():
                # a plain cast, then in-place float64 arithmetic: a multiply that
                # casts a float32 operand itself goes through buffers and is slower
                term = model.layers[name].astype(np.float64)
                term *= w
                total += term
        del model  # free its payload before the next model is read
    mean = ModelWeights(model_id="merged(" + ",".join(ids) + ")", layers=sums)
    return reconstruct_model(u, project_model(u, mean))


# -------------------------------------------------------------- memory savings


def memory_savings(
    t: int,
    per_model_params: int,
    basis_params: int,
    coeff_params_per_model: int,
    mean_params: int = 0,
) -> float:
    """Storage ratio of T full models over basis + means + T coefficient sets.

    Values below 1 mean the shared representation costs more than it saves
    (tiny ensembles); the ratio grows toward per-model params over
    per-model coefficients as T grows.
    """
    t = int_at_least(t, "t", 1)
    per_model_params = int_at_least(per_model_params, "per_model_params", 1)
    basis_params = int_at_least(basis_params, "basis_params", 0)
    coeff_params_per_model = int_at_least(coeff_params_per_model, "coeff_params_per_model", 0)
    mean_params = int_at_least(mean_params, "mean_params", 0)
    denom = basis_params + mean_params + t * coeff_params_per_model
    if denom <= 0:
        raise InvalidArgumentError("compressed representation has zero size")
    return (t * per_model_params) / denom


@dataclass(frozen=True)
class MemoryPreset:
    name: str
    description: str
    counts: dict

    def ratio(self) -> float:
        return memory_savings(**self.counts)


MEMORY_PRESETS = {
    "worked-example-126x": MemoryPreset(
        name="worked-example-126x",
        description=(
            "Reference arithmetic case: 500 models of 131,072 parameters, a "
            "basis costing twice one model, 512 coefficients per model, no "
            "separate mean term."
        ),
        counts=dict(
            t=500,
            per_model_params=131072,
            basis_params=262144,
            coeff_params_per_model=512,
            mean_params=0,
        ),
    ),
    "adapter-bank-19x": MemoryPreset(
        name="adapter-bank-19x",
        description=(
            "500 low-rank adapter sets for a 32-block transformer: per model, "
            "three attention projections per block with two rank-16 halves of "
            "width 4096 (12,582,912 parameters).  The 192 matrix stacks keep "
            "142 feature directions each plus a per-stack mean row; every "
            "model stores 16 x 142 coefficients per stack."
        ),
        counts=dict(
            t=500,
            per_model_params=12_582_912,
            basis_params=192 * 142 * 4096,
            coeff_params_per_model=192 * 16 * 142,
            mean_params=192 * 4096,
        ),
    ),
    "vision-backbone-100x": MemoryPreset(
        name="vision-backbone-100x",
        description=(
            "A fleet of 500 fine-tunes of an 85M-parameter vision backbone, "
            "flattened whole-model with a four-direction global basis, 72 "
            "per-group mean scalars, and 288 mixing coefficients per model."
        ),
        counts=dict(
            t=500,
            per_model_params=85_000_000,
            basis_params=4 * 85_000_000,
            coeff_params_per_model=288,
            mean_params=72,
        ),
    ),
}


def coefficient_parameter_count(basis_rank: int, layer_count: int) -> int:
    """Trainable parameters when only subspace coefficients are tuned:
    one coefficient per retained direction, per adapted layer."""
    basis_rank = int_at_least(basis_rank, "basis_rank", 1)
    layer_count = int_at_least(layer_count, "layer_count", 1)
    return basis_rank * layer_count


# ------------------------------------------------------------------ adaptation


#: Below this share of ``||R||^2`` the coefficient-space loss identity
#: loses more to cancellation than 1e-9 relative, so the loss is taken
#: explicitly.
EXPLICIT_LOSS_RATIO = 1e-6


def _descend(z, resid_target, normal, rhs, lr, epochs):
    """Gradient descent on ``||Z C - R||^2`` from C = 0, in coefficient
    space: with N = Z^T Z, b = Z^T R and G = N C, the loss is
    ``||R||^2 + <C, G - 2b>`` and the step is ``C - 2 lr (G - b)``, so an
    epoch costs one k x k by k x r product, whatever the sample count.
    An epoch whose identity value falls below ``EXPLICIT_LOSS_RATIO *
    ||R||^2`` takes ``||Z C - R||^2`` instead.  Returns C, the loss of
    every iterate (``epochs + 1`` values) and how many were explicit."""
    r2 = float(np.vdot(resid_target, resid_target))
    floor = EXPLICIT_LOSS_RATIO * r2
    two_rhs, step = 2.0 * rhs, lr * 2.0
    ct = np.zeros(rhs.shape)
    losses, explicit = [], 0
    for epoch in range(epochs + 1):
        g = normal @ ct
        loss = r2 + float(np.vdot(ct, g - two_rhs))
        if loss < floor:
            loss = float(np.linalg.norm(z @ ct - resid_target) ** 2)
            explicit += 1
        losses.append(loss)
        if epoch < epochs:
            g -= rhs
            g *= step
            ct -= g
    return ct, losses, explicit


def adapt_coefficients(
    u: UniversalSubspace,
    layer: str,
    x: np.ndarray,
    y: np.ndarray,
    method: str = "closed_form",
    lr: float | None = None,
    epochs: int = 1000,
    ridge: float = 0.0,
):
    """Fit one layer's subspace coefficients to regression data.

    The layer weight is constrained to ``mu + C @ U2.T`` and C is chosen to
    minimize ``||x @ W.T - y||_F``; with Z = x @ U2 this reduces to the
    k-dimensional normal equations ``(Z.T Z) C.T = Z.T (y - x @ mu.T)``.
    ``closed_form`` solves them directly; ``gradient`` runs plain gradient
    descent, which converges monotonically for lr below 1/lmax(Z.T Z).
    Its epochs work in coefficient space (:func:`_descend`): after one
    pass over the data they never touch the samples again, except to
    take a loss below ``EXPLICIT_LOSS_RATIO`` of the initial one
    explicitly (counted in ``explicit_loss_epochs``).

    Returns ``(SliceCoefficients, report)`` where the report carries the
    residual norms, the normal-matrix spectrum bound and condition number
    (lmax / lmin of the same ``eigvalsh``, inf when lmin is not positive),
    the trainable-parameter accounting and, for ``gradient``, the loss curve.
    """
    if layer not in u.included_layers:
        raise InvalidArgumentError(f"layer {layer!r} is not part of the subspace")
    model = u.layer_models[layer]
    if model.order != 2:
        raise InvalidArgumentError(
            "coefficient adaptation needs a matrix-stacked (order-2) subspace"
        )
    one_of(method, "method", ("closed_form", "gradient"))
    x, y = as_real(x, "x"), as_real(y, "y")
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InvalidArgumentError(
            f"need paired 2-D data, got inputs {x.shape} and targets {y.shape}"
        )
    finite_entries(x, "x")
    finite_entries(y, "y")
    ridge = real_in(ridge, "ridge", *NONNEGATIVE)
    basis = model.factors[-1]
    d, k = basis.shape
    rows = u.layer_shapes[layer][0]
    if x.shape[1] != d:
        raise InvalidArgumentError(f"inputs have width {x.shape[1]}, layer expects {d}")
    if y.shape[1] != rows:
        raise InvalidArgumentError(f"targets have width {y.shape[1]}, layer expects {rows}")
    z = x @ basis
    # every row of the mean slab is mu: x @ slab.T has x @ mu, one GEMV,
    # in every column
    resid_target = y - (x @ np.broadcast_to(model.mu, (d,)))[:, None]
    normal = z.T @ z
    if ridge:
        normal = normal + ridge * np.eye(k)
    spectrum = np.linalg.eigvalsh(normal)
    lmax = float(spectrum[-1])
    if lmax <= 0.0 or spectrum[0] <= lmax * 1e-12:
        if ridge == 0.0:
            raise NumericalFailureError(
                f"normal matrix for layer {layer!r} is singular "
                f"({x.shape[0]} samples for {k} directions); retry with ridge",
                suggested_ridge=max(1e-8 * float(np.trace(normal)) / k, 1e-12),
            )
    rhs = z.T @ resid_target
    report = {
        "basis_rank": k,
        "trainable_params": k,
        "full_params": rows * d,
        "normal_matrix_lmax": lmax,
        "normal_matrix_cond": float(lmax / spectrum[0]) if spectrum[0] > 0 else float("inf"),
        "stable_lr_bound": float(1.0 / lmax) if lmax > 0 else float("inf"),
        "ridge": ridge,
        "initial_residual_norm": float(np.linalg.norm(resid_target)),
    }
    if method == "closed_form":
        try:
            ct = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"normal equations failed to solve: {exc}") from exc
    else:
        if lr is None:
            lr = 0.5 / lmax if lmax > 0 else 1.0
        lr = real_in(lr, "lr", *POSITIVE)
        epochs = int_at_least(epochs, "epochs", 1)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged descent is refused below
            ct, losses, explicit = _descend(z, resid_target, normal, rhs, lr, epochs)
        if not np.isfinite(losses[-1]):
            raise NumericalFailureError(f"gradient descent diverged at lr = {lr!r} "
                                        f"(stable below {report['stable_lr_bound']!r})")
        report.update(lr=lr, epochs=epochs, loss_curve=losses, explicit_loss_epochs=explicit)
    report["residual_norm"] = float(np.linalg.norm(z @ ct - resid_target))
    return SliceCoefficients(coeffs=ct.T.copy()), report


# --------------------------------------------------------------- subspace files


def save_subspace(u: UniversalSubspace, path) -> None:
    """Write a subspace container (format version 7).

    Entry layout, per included layer L and each non-stacking mode
    n = 2..order: ``mu/L`` (the mean as a matrix: one row for order 2,
    one member for order 3, 1 x 1 for global centring), ``U/L/n``
    (factors), ``ledger/L/sv/n`` (the stored spectrum as a single-row
    matrix: all of it from the exact route, the components as deep as
    the rank reads from the Gram route) and ``ledger/L/tail/n`` (1 x 1,
    the energy of the components not stored; 0 from the exact route).
    The meta holds only what the entries cannot say: ``provenance`` (the
    source model ids), ``centering`` (a one-column layer's feature mean is
    1 x 1, as a global one is), ``policy`` and ``layers``, which maps every
    layer, excluded ones included, in order, to its ``[rows, cols]``.  The
    container's model id is the architecture id.
    """
    entries = []
    for name in u.included_layers:
        model = u.layer_models[name]
        entries.append((f"mu/{name}", np.atleast_2d(model.mu)))
        for n, factor in enumerate(model.factors, 2):
            entries.append((f"U/{name}/{n}", factor))
        for n, spec in enumerate(model.spectra, 2):
            entries.append((f"ledger/{name}/sv/{n}", spec.singular_values.reshape(1, -1)))
            entries.append((f"ledger/{name}/tail/{n}", np.full((1, 1), spec.tail)))
    meta = {
        "kind": "subspace",
        "format_version": SUBSPACE_FORMAT_VERSION,
        "provenance": list(u.provenance),
        "centering": u.centering,
        "policy": asdict(u.policy),
        "layers": {name: list(shape) for name, shape in u.layer_shapes.items()},
    }
    write_container(path, u.architecture_id, entries, meta=meta)


def _require(condition, message):
    if not condition:
        raise ContainerError(message, HEADER_LEN)


def _take(entries, name):
    _require(name in entries, f"container is missing required entry {name!r}")
    return entries.pop(name)


def _only(names, known, where):
    """Raise ContainerError naming every one of ``names`` outside ``known``."""
    extra = sorted(set(names) - set(known))
    _require(not extra, f"{where} holds {', '.join(map(repr, extra))}, which uws does not write")


def _names(meta, key) -> list:
    value = meta[key]
    _require(isinstance(value, list) and all(isinstance(v, str) for v in value),
             f"meta {key!r} must be a list of names, got {value!r}")
    return value


@contextmanager
def _decoding_meta(kind):
    """A meta field that is missing, of the wrong type or of a bad value
    raises ContainerError, not the KeyError, TypeError or ValueError that
    decoding it runs into."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ContainerError(
            f"{kind} container meta is malformed ({type(exc).__name__}: {exc})", HEADER_LEN
        ) from exc


def _spectrum(entries, name, n, width, unfolding, policy) -> ModeSpectrum:
    """Mode ``n``'s spectrum from its stored singular values, which must
    form a spectrum of at most the ``unfolding``'s (rows, cols) count of
    values, and its 1 x 1 tail energy (0 after a whole spectrum).
    ``width``, the factor's, must be the rank ``policy`` selects from
    them, as extraction selected it."""
    key, tail_key = f"ledger/{name}/sv/{n}", f"ledger/{name}/tail/{n}"
    count = min(unfolding)
    sv = _take(entries, key).ravel()
    _require(sv.size <= count,
             f"entry {key!r} holds {sv.size} singular values, more than its unfolding's {count}")
    tail = _take(entries, tail_key)
    _require(tail.shape == (1, 1), f"entry {tail_key!r} must be 1 x 1, got {tail.shape}")
    _require(sv.size < count or tail[0, 0] == 0,
             f"entry {tail_key!r} must be 0 after the whole spectrum in {key!r}")
    try:
        spectrum = ModeSpectrum(singular_values=sv, tail=float(tail[0, 0]))
    except (InvalidArgumentError, NumericalFailureError) as exc:
        raise ContainerError(f"entries {key!r} and {tail_key!r} are not a spectrum: {exc}",
                             HEADER_LEN) from exc
    ratios = spectrum.ratios
    # the count - sv.size components not stored are each at most the last
    # stored one, up to the rounding of the sums that gave the tail
    _require(1.0 - float(np.sum(ratios)) <= (count - sv.size) * ratios[-1]
             + 4 * count * np.finfo(np.float64).eps,
             f"entry {tail_key!r} holds more energy than the {count - sv.size} components "
             f"after {key!r} can")
    rank = select_rank(ratios, policy, singular_values=sv, shape=unfolding)
    _require(width == rank,
             f"entry 'U/{name}/{n}' is {width} wide, but {policy.describe()} keeps {rank} "
             f"of the spectrum in {key!r}")
    return spectrum


def load_subspace(path) -> UniversalSubspace:
    """Read a subspace container of format version 7, the only one.

    ``layers`` maps the architecture's layers, in order, to their
    ``[rows, cols]``; the included ones are those with a ``mu/L`` entry
    and the rest are excluded.  The order is one more than each included
    layer's count of ``U/L/n`` entries, which must be the same for every
    layer.  Each stack shape is derived from its layer's shape and the T
    models ``provenance`` names: (T·rows, cols) for order 2, (T, rows,
    cols) for order 3.  Each mode's retained rank is its factor's width,
    the mean's kind is ``centering`` (a one-column layer's feature mean is
    1 x 1, as a global one is, so the entries cannot state it) and the
    architecture id is the container's model id.  ``provenance`` must
    name at least one model, ``layers`` at least one included layer, each
    factor must have its mode's extent as rows and orthonormal columns
    (within ``ORTHONORMALITY_TOLERANCE``) as wide as ``policy`` selects
    from its stored spectrum, and each stored spectrum must be one
    (nonnegative, nonincreasing, not all zero, at most as long as its
    unfolding allows, with a finite nonnegative 1 x 1 tail that is 0 past
    a zero value and after the whole spectrum); otherwise, and for a meta
    field that is missing or malformed, or any entry or meta key that
    :func:`save_subspace` does not write, ContainerError.  Each layer model
    holds the factor and spectrum of every mode n = 2..order, in order.
    """
    doc = read_container(path)
    meta = doc.meta or {}
    _require(meta.get("kind") == "subspace", "not a subspace container (meta kind != 'subspace')")
    version = meta.get("format_version")
    _require(type(version) is int and version == SUBSPACE_FORMAT_VERSION,
             f"subspace format_version {version!r} is not {SUBSPACE_FORMAT_VERSION}: "
             "extract the subspace again")
    _only(meta, ("kind", "format_version", "provenance", "centering", "policy", "layers"),
          "subspace meta")
    with _decoding_meta("subspace"):
        provenance = _names(meta, "provenance")
        _require(provenance, "meta 'provenance' names no model")
        layer_shapes = {name: tuple(shape) for name, shape in meta["layers"].items()}
        _require(all(len(shape) == 2 and all(type(n) is int and n >= 1 for n in shape)
                     for shape in layer_shapes.values()),
                 f"meta 'layers' must map each layer to its [rows, cols], got {meta['layers']!r}")
        entries = {name: np.asarray(arr, np.float64) for name, arr in doc.layers.items()}
        included = [name for name in layer_shapes if f"mu/{name}" in entries]
        _require(included, "meta 'layers' names no layer with a mean entry")
        # one factor entry U/L/n per mode n = 2..order, one order for every layer
        orders = {name: 1 + sum(f"U/{name}/{n}" in entries for n in (2, 3)) for name in included}
        order = orders[included[0]]
        _require(order in ORDERS and set(orders.values()) == {order},
                 "the included layers' factor entries 'U/L/n', n = 2..order, must state one "
                 f"order of 2 or 3, got orders {orders}")
        config = ExtractionConfig(
            policy=RankPolicy(**meta["policy"]),
            order=order,
            centering=meta["centering"],
            architecture_id=doc.model_id,
        )
        modes, t = range(2, config.order + 1), len(provenance)
        layer_models = {}
        for name in included:
            rows, cols = layer_shapes[name]
            shape = (t * rows, cols) if config.order == 2 else (t, rows, cols)
            size = int(np.prod(shape))
            factors = tuple(_take(entries, f"U/{name}/{n}") for n in modes)
            # modes 2..order, in order, have the extents after the stacking one
            _require(all(f.shape[0] == extent for f, extent in zip(factors, shape[1:])),
                     f"layer {name!r}: a factor's rows differ from its mode's extent {list(shape)}")
            for n, f in zip(modes, factors):
                defect = orthonormality_defect(f)
                _require(defect <= ORTHONORMALITY_TOLERANCE,
                         f"entry 'U/{name}/{n}' is not orthonormal: max |V^T V - I| = "
                         f"{defect:.1e} > {ORTHONORMALITY_TOLERANCE:.0e}")
            mu = _take(entries, f"mu/{name}")
            mu = (np.float64(mu.reshape(())) if config.centering == "global"
                  else mu.reshape(shape[1:]))
            spectra = tuple(
                _spectrum(entries, name, n, f.shape[1], (extent, size // extent), config.policy)
                for n, f, extent in zip(modes, factors, shape[1:])
            )
            layer_models[name] = SubspaceModel(mu=mu, factors=factors, spectra=spectra)
        _only(entries, (), "subspace container")  # _take removed every entry it read
        return UniversalSubspace(layer_models, layer_shapes, provenance, config.policy,
                                 config.architecture_id)


def save_coefficients(c: CoefficientSet, path) -> None:
    """Write a coefficient container: one ``coef/L`` entry per projected
    layer (r x k for order-2 stacking, k_2 x k_3 for order 3), at f64,
    and one ``raw/L`` entry per passthrough layer at its array's
    precision.  The meta holds only each projected layer's precision
    (``dtypes``); the container's model id is the model's."""
    entries = [(f"coef/{name}", as_real(sc.coeffs, f"layer {f'coef/{name}'!r}"))
               for name, sc in c.coefficients.items()]
    entries += [(f"raw/{name}", arr) for name, arr in c.passthrough.items()]
    write_container(path, c.model_id, entries, meta={"kind": "coefficients", "dtypes": c.dtypes})


def load_coefficients(path) -> CoefficientSet:
    """Read a coefficient container built from its entries: ``coef/L``
    holds layer L's coefficients, rebuilt at the precision ``dtypes``
    declares (f64 where it declares none), and ``raw/L`` its passthrough
    matrix, held at its stored precision as the document's read-only
    view; the model id is the container's.  A malformed meta
    field, and any entry or meta key that :func:`save_coefficients` does
    not write, raises ContainerError."""
    doc = read_container(path)
    meta = doc.meta or {}
    _require(meta.get("kind") == "coefficients",
             "not a coefficient container (meta kind != 'coefficients')")
    _only(meta, ("kind", "dtypes"), "coefficient meta")
    _only([n for n in doc.layers if not n.startswith(("coef/", "raw/"))], (),
          "coefficient container")
    with _decoding_meta("coefficient"):
        declared = meta.get("dtypes", {})
        coefficients, passthrough, dtypes = {}, {}, {}
        for entry, arr in doc.layers.items():
            prefix, _, name = entry.partition("/")
            if prefix == "coef":
                coefficients[name] = SliceCoefficients(coeffs=np.asarray(arr, np.float64))
                dtypes[name] = declared.get(name, "f64")
                _require(dtypes[name] in ("f32", "f64"),
                         f"dtypes declares {dtypes[name]!r} for layer {name!r}, not f32 or f64")
            else:
                passthrough[name] = arr
        _only(declared, coefficients, "coefficient meta dtypes")
        return CoefficientSet(doc.model_id, coefficients, passthrough, dtypes)
