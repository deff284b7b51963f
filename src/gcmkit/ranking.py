"""Multi-criteria model ranking: TOPSIS with neurally learned weights.

The pipeline per (zone, season) context is: metric reports become a
decision matrix, columns are vector-normalized, weighted by a criterion
weight vector, and each model is scored by its closeness coefficient
CC = D-/(D+ + D-) between the ideal and anti-ideal points. Weights come
either from a static uniform vector or from a small softmax network
trained to reproduce entropy-method weights from per-column summary
features, which keeps the weighting data-driven and reproducible.

A criterion is a metric name; it is a benefit when higher is better
(`BENEFIT_METRICS`) and a cost otherwise. Every context scores every
configured criterion, in order. A criterion with no valid value in a
context is an all-zero column there: vector normalization keeps it at
zero and its entropy is 1, so it moves neither TOPSIS distance and earns
no entropy weight. One weight net therefore weighs every context.

A rank builds each context's decision matrix once, and the matrix keeps
its features and entropy targets once computed, so training, evaluation
and ranking share them and the net predicts each context's weights once.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .artifacts import csv_text
from .errors import NumericFault, ValidationError
from .metrics import METRIC_NAMES, MetricReport
from .rng import SplitMix64
from .spec import Field, parse
from . import tensorcore as tc

# Higher is better for these; everything else enters as a cost (lower is
# better). Bias is folded to |bias| before it reaches the matrix, because
# vector normalization of a signed column would break cost monotonicity.
BENEFIT_METRICS = frozenset({"kge", "nse", "r", "r2", "pdf_overlap"})

# The nine default ranking criteria; r2 is available via config.
DEFAULT_CRITERIA_NAMES = (
    "bias",
    "rmse",
    "kge",
    "nse",
    "r",
    "pdf_overlap",
    "txx_err",
    "tnn_err",
    "sd_diff",
)


@dataclass(eq=False)
class DecisionMatrix:
    """Models x criteria value matrix for one (zone, season) context; its values are read-only,
    so its features and entropy targets are computed once, on first use."""

    models: List[str]
    criteria: List[str]
    values: np.ndarray
    context: Tuple[str, str] = ("", "")

    def __post_init__(self):
        unknown = [name for name in self.criteria if name not in METRIC_NAMES]
        if unknown:
            raise ValidationError(f"unknown criteria {unknown}")
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (len(self.models), len(self.criteria)):
            raise ValidationError(
                f"matrix shape {v.shape} does not match {len(self.models)} models x {len(self.criteria)} criteria"
            )
        if len(self.models) < 2:
            raise ValidationError("ranking needs at least 2 models")
        if len(set(self.models)) != len(self.models):
            raise ValidationError("duplicate model labels")
        if not np.all(np.isfinite(v)):
            raise ValidationError("decision matrix contains non-finite entries")
        v.setflags(write=False)
        self.values = v

    @cached_property
    def features(self) -> np.ndarray:
        """The weight net's input, `featurize(self)`."""
        return featurize(self)

    @cached_property
    def target(self) -> "WeightVector":
        """The entropy-method weights of the normalized matrix."""
        return entropy_target_weights(normalize(self))


@dataclass(frozen=True, eq=False)
class WeightVector:
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError("weights must be a vector")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {float(np.sum(w))!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self):
        return self.w.size


def order_by_cc(scores: Mapping[str, float]) -> List[str]:
    """Model labels by descending closeness coefficient, ties broken by label: the one winner rule."""
    return sorted(scores, key=lambda label: (-scores[label], label))


@dataclass(eq=False)
class RankingResult:
    """Closeness coefficients and derived ordering for one context, with the weights it was scored with."""

    context: Tuple[str, str]
    models: List[str]
    cc: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    order: List[str] = field(default_factory=list)
    weights: Optional[WeightVector] = None
    source: str = ""  # "weightnet" or "uniform"

    def __post_init__(self):
        if not self.order:
            self.order = order_by_cc(dict(zip(self.models, self.cc)))


def assemble_matrix(
    reports: Sequence[Tuple[str, MetricReport]],
    criteria: Sequence[str],
    context: Tuple[str, str] = ("", ""),
) -> DecisionMatrix:
    """Build the decision matrix from per-model reports, one column per criterion, in order.

    Bias enters as |bias|. Entries whose metric is flagged invalid are
    imputed with the worst valid value in their column (max for cost, min
    for benefit) so a degenerate metric can never reward a model; a column
    with no valid value at all is all zero, which makes it inert. A context
    with no valid value in any column cannot be ranked.
    """
    cols, usable = [], False
    for name in criteria:
        raw = [rep.value(name) for _, rep in reports]
        raw = [abs(v) if v is not None and name == "bias" else v for v in raw]
        valid = [v for v in raw if v is not None]
        usable = usable or bool(valid)
        worst = (min(valid) if name in BENEFIT_METRICS else max(valid)) if valid else 0.0
        cols.append([worst if v is None else v for v in raw])
    if not usable:
        raise ValidationError(f"no usable criteria in context {context}")
    values = np.array(cols, dtype=np.float64).T
    return DecisionMatrix(models=[label for label, _ in reports], criteria=list(criteria), values=values,
                          context=context)


def normalize(matrix: Union[DecisionMatrix, np.ndarray]) -> np.ndarray:
    """Vector normalization per column: N_ij = C_ij / sqrt(sum_i C_ij^2).

    An all-zero column stays all-zero (the criterion becomes inert) instead
    of producing NaN.
    """
    c = matrix.values if isinstance(matrix, DecisionMatrix) else np.asarray(matrix, dtype=np.float64)
    norms = np.sqrt(np.sum(c * c, axis=0))
    out = np.zeros_like(c)
    nonzero = norms > 0
    out[:, nonzero] = c[:, nonzero] / norms[nonzero]
    return out


def topsis(dm: DecisionMatrix, weights: WeightVector, source: str = "") -> RankingResult:
    """Score every model of `dm` by closeness to the ideal point under `weights`, which came from `source`.

    Weighted matrix W = w_j * N_ij of the normalized matrix N; the ideal
    takes per-column max for benefit criteria and min for cost criteria
    (the anti-ideal the opposite); distances are Euclidean and
    CC = D-/(D+ + D-). When a model ties the ideal and anti-ideal
    simultaneously (all models identical), its CC is 0.5 by convention.
    """
    if len(weights) != len(dm.criteria):
        raise ValidationError("weight count does not match criteria")
    weighted = normalize(dm) * weights.w[None, :]
    benefit = np.array([name in BENEFIT_METRICS for name in dm.criteria])
    ideal = np.where(benefit, weighted.max(axis=0), weighted.min(axis=0))
    anti = np.where(benefit, weighted.min(axis=0), weighted.max(axis=0))
    d_plus = np.sqrt(np.sum((weighted - ideal[None, :]) ** 2, axis=1))
    d_minus = np.sqrt(np.sum((weighted - anti[None, :]) ** 2, axis=1))
    total = d_plus + d_minus
    cc = np.where(total > 0, d_minus / np.where(total > 0, total, 1.0), 0.5)
    return RankingResult(context=dm.context, models=list(dm.models), cc=cc, d_plus=d_plus, d_minus=d_minus,
                         weights=weights, source=source)


def _column_stats(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The min-max rescaled columns of a models x criteria array, as rows, and their entropies.

    The array is transposed to C-contiguous (criteria x models) rows and
    reduced along the last axis, so each column gets the 1-D reduction it
    would get alone, to the bit. A constant column rescales to 0.5 and
    counts as perfectly uninformative (entropy 1). Otherwise the rescaled
    column is renormalized to a probability vector p with normalized
    Shannon entropy -sum(p ln p) / ln m, 0 ln 0 being 0; that sum runs over
    the nonzero p only, one column at a time.
    """
    cols = np.ascontiguousarray(np.asarray(values, dtype=np.float64).T)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    flat = hi == lo
    scaled = (cols - lo[:, None]) / np.where(flat, 1.0, hi - lo)[:, None]
    scaled[flat] = 0.5
    totals = scaled.sum(axis=1)
    entropy = np.ones(len(cols))
    for j in np.flatnonzero(~flat & (totals != 0.0)):
        p = scaled[j] / totals[j]
        nz = p[p > 0]
        entropy[j] = -np.sum(nz * np.log(nz)) / math.log(cols.shape[1])
    return scaled, entropy


def entropy_target_weights(n_matrix: np.ndarray) -> WeightVector:
    """Entropy-method weights: dispersion-rich columns earn more weight.

    Per column: min-max rescale, renormalize to a probability vector, take
    normalized entropy e_j; the weight is (1 - e_j) / sum_k (1 - e_k). If
    every column is uninformative the weights fall back to uniform.
    """
    n_matrix = np.asarray(n_matrix, dtype=np.float64)
    m, n = n_matrix.shape
    if m < 2:
        raise ValidationError("entropy weights need at least 2 models")
    d = np.maximum(1.0 - _column_stats(n_matrix)[1], 0.0)
    total = float(np.sum(d))
    if total == 0.0:
        return WeightVector(np.full(n, 1.0 / n))
    return WeightVector(d / total)


def featurize(dm: DecisionMatrix) -> np.ndarray:
    """Fixed-length summary of a decision matrix for the weight network.

    Each column is min-max rescaled and summarized by (mean, sd, min, max,
    entropy), giving 5 features per criterion regardless of how many models
    the context holds.
    """
    scaled, entropy = _column_stats(dm.values)
    stats = (scaled.mean(axis=1), scaled.std(axis=1), scaled.min(axis=1), scaled.max(axis=1), entropy)
    return np.stack(stats, axis=1).ravel()


N_FEATURES_PER_CRITERION = 5
# the keys of a weight-network checkpoint's meta
META_FIELDS = (
    Field("kind", (str,), choices=("weightnet",)),
    Field("criteria", (list,), size=(1, len(METRIC_NAMES)), choices=METRIC_NAMES),
    Field("seed", (int,)),
    Field("step", (int,), low=0),
)


@dataclass
class WeightNetConfig:
    epochs: int = 50
    warm_epochs: int = 5  # SGD phase before Adam takes over
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 7


class WeightNet(tc.Module):
    """Softmax criterion-weight network over the named criteria: features -> 64 -> 32 -> weights."""

    def __init__(self, criteria: Sequence[str], seed: int = 7):
        self.criteria = tuple(criteria)
        self.seed = seed
        rng = SplitMix64(seed)
        self.fc1 = tc.Dense(rng.split(), N_FEATURES_PER_CRITERION * len(self.criteria), 64, "fc1")
        self.fc2 = tc.Dense(rng.split(), 64, 32, "fc2")
        self.fc3 = tc.Dense(rng.split(), 32, len(self.criteria), "fc3")
        self.step_count = 0

    def forward(self, features: np.ndarray) -> tc.Tensor:
        x = tc.Tensor(np.atleast_2d(features))
        h = self.fc1(x).relu()
        h = self.fc2(h).relu()
        return tc.softmax(self.fc3(h), axis=-1)

    @tc.one_blas_thread()
    def predict(self, features: np.ndarray) -> WeightVector:
        with tc.no_grad():
            out = self.forward(features).data[0]
        # softmax guarantees nonnegativity; renormalize the float64 sum
        return WeightVector(out / out.sum())

    def checkpoint(self):
        """(entries, meta) for `tc.encode_checkpoint`."""
        meta = {"kind": "weightnet", "criteria": list(self.criteria), "seed": self.seed, "step": self.step_count}
        return self.state_entries(), meta

    @classmethod
    def load(cls, path: str) -> "WeightNet":
        arrays, meta = tc.load_checkpoint(path)
        meta = parse(meta, META_FIELDS, f"checkpoint {path} meta")
        net = cls(meta["criteria"], seed=meta["seed"])
        net.step_count = meta["step"]
        tc.load_state(net.state_entries(), arrays, path)
        return net


@tc.one_blas_thread()
def train_weightnet(
    contexts: Sequence[DecisionMatrix],
    config: WeightNetConfig = None,
) -> Tuple[WeightNet, List[float]]:
    """Fit the weight network to entropy-method targets across contexts, which all score the same criteria.

    Training runs `warm_epochs` of SGD before switching to Adam (both at
    the configured learning rate, one `minimize` per batch) and logs the
    mean training MSE per epoch. Deterministic for a fixed config seed.
    """
    if not contexts:
        raise ValidationError("train_weightnet needs at least one context")
    config = config or WeightNetConfig()
    feats = np.stack([dm.features for dm in contexts])
    targets = np.stack([dm.target.w for dm in contexts])

    net = WeightNet(contexts[0].criteria, seed=config.seed)
    params = [t for _, t in net.params()]
    sgd = tc.SGD(params, lr=config.learning_rate)
    adam = tc.Adam(params, lr=config.learning_rate)
    shuffler = SplitMix64(config.seed).split()

    history: List[float] = []
    n = feats.shape[0]
    for epoch in range(config.epochs):
        opt = sgd if epoch < config.warm_epochs else adam
        perm = shuffler.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            losses.append(opt.minimize(lambda: tc.mse(net.forward(feats[idx]), targets[idx])))
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise NumericFault(f"weight-network training diverged at epoch {epoch + 1}")
        history.append(mean_loss)
        net.step_count += len(losses)
    return net, history


def rank_all(matrices: Sequence[DecisionMatrix], net: Optional[WeightNet] = None) -> List[RankingResult]:
    """Rank every context's decision matrix, in the order given.

    Without a net every context takes uniform weights; with one, every
    context takes the net's prediction. Each result carries its weights and
    their source.
    """
    if not matrices:
        raise ValidationError("no contexts to rank")
    results: List[RankingResult] = []
    for dm in matrices:
        if net is None:
            n = len(dm.criteria)
            weights, source = WeightVector(np.full(n, 1.0 / n)), "uniform"
        else:
            weights, source = net.predict(dm.features), "weightnet"
        results.append(topsis(dm, weights, source))
    return results


def heatmap_csv(cc: Dict[Tuple[str, str], Dict[str, float]]) -> str:
    """The models x contexts table of closeness coefficients, from {(zone, season): {model: cc}}."""
    contexts = sorted(cc)
    models = sorted(cc[contexts[0]])
    return csv_text(["model"] + [f"{z}/{s}" for z, s in contexts],
                    ([label] + [cc[ctx][label] for ctx in contexts] for label in models))
