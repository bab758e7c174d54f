"""Weight training with contrastive and median-based minibatch losses.

A couple is a Gram matrix G plus a +1/-1 label; a set of couples is one
stack of Grams and one label vector.  Representations are
linear in the weights w, so the difference of a couple's two
weighted-average representations is D w for a dim x n_max matrix D, and
the couple's Euclidean distance is sqrt(w^T G w) with G = D^T D.  The
contrastive loss is the label-signed distance.  The median-based loss
softplus-penalizes couples on the wrong side of the minibatch's median
pair distance, with the median couple's identity held fixed inside each
gradient step.
"""

from __future__ import annotations

import ctypes
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import evaluate  # optimal_split is read per call, so a wrapper sees it
from .aggregate import WeightModel, encode, interpolation_matrix
from .embeddings import EmbeddingTable
from .pairgen import TextPair
from .settings import FOLDS, KAPPA_GRID, TrainConfig
from .textprep import IdfTable

# glibc's int malloc_trim(size_t pad), looked up in the running process;
# None elsewhere.
_malloc_trim = getattr(ctypes.pythonapi, "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


@dataclass(frozen=True)
class Couples:
    """Training pairs, each reduced to the Gram matrix of its distance."""

    grams: np.ndarray  # (n, n_max, n_max), distance_i^2 = w @ grams[i] @ w
    labels: np.ndarray  # (n,), +1 related, -1 non-related

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> "Couples":
        """The couples at an index array, boolean mask or slice."""
        return Couples(self.grams[index], self.labels[index])


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    eta: float
    wall_seconds: float


def sigmoid(x):
    """Logistic function, elementwise, without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x):
    """ln(1 + exp(x)), elementwise, without overflow."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def couple_gram(
    vectors_a: np.ndarray, vectors_b: np.ndarray, n_max: int
) -> np.ndarray:
    """G = D^T D for D = V_a^T P_{m_a} / m_a - V_b^T P_{m_b} / m_b.

    ``vectors_a`` and ``vectors_b`` are the idf-sorted (m, dim) embedding
    matrices of the two texts, at most n_max rows each; D w is the
    difference of their learned representations under weights w.
    """
    m_a, m_b = len(vectors_a), len(vectors_b)
    diff = (vectors_a.T @ interpolation_matrix(m_a, n_max) / m_a
            - vectors_b.T @ interpolation_matrix(m_b, n_max) / m_b)
    return diff.T @ diff


def _distances_and_gradients(
    couples: Couples, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair distances d = sqrt(w^T G w) and their weight gradients G w / d.

    At d = 0 the distance is non-differentiable; the subgradient 0 is
    returned (coincident representations need no push).
    """
    gw = couples.grams @ w
    distances = np.sqrt(np.maximum(gw @ w, 0.0))
    grads = np.zeros_like(gw)
    positive = distances[:, None] > 0.0
    np.divide(gw, distances[:, None], out=grads, where=positive)
    return distances, grads


def batch_loss_and_gradient(
    couples: Couples,
    w: np.ndarray,
    loss: str,
    kappa: float,
    lam: float,
    median_index: Optional[int] = None,
) -> tuple[float, np.ndarray]:
    """Mean per-couple loss plus L2 term, and its weight gradient.

    ``median_index`` pins the median couple's identity (used both for the
    within-step fixed-median convention and for finite-difference checks);
    its distance still varies with w.  Otherwise the median is the
    lower-middle couple of the distance-sorted batch, distance ties broken
    by batch position (stable sort).
    """
    distances, grads = _distances_and_gradients(couples, w)
    labels = couples.labels

    if loss == "contrastive":
        total = float(labels @ distances)
        grad = labels @ grads
    else:
        if median_index is None:
            order = np.argsort(distances, kind="stable")
            median_index = int(order[(len(couples) - 1) // 2])
        # softplus(-kappa p (mu - d)) per couple; its gradient is
        # kappa sigma(.) p (grad d - grad mu), exactly zero for the median.
        arg = -kappa * labels * (distances[median_index] - distances)
        total = float(np.sum(softplus(arg)))
        grad = (kappa * sigmoid(arg) * labels) @ (grads - grads[median_index])

    n = len(couples)
    loss_value = total / n + lam * float(w @ w)
    grad = grad / n + 2.0 * lam * w
    return loss_value, grad


def prepare_couples(
    pairs: Sequence[TextPair],
    table: EmbeddingTable,
    idf: IdfTable,
    n_max: int,
) -> Couples:
    """Encode and truncate pairs, then reduce each to the Gram matrix of
    its distance.

    Pairs where either side has no in-vocabulary token are dropped.
    """
    n = len(pairs)
    encoded = encode(
        [pair.text_a for pair in pairs] + [pair.text_b for pair in pairs],
        table, idf,
    )
    kept = [i for i in range(n) if encoded[i] and encoded[n + i]]
    # Free heap pages go back to the OS before training's largest block,
    # so peak memory does not hinge on some freed hole fitting the stack.
    if _malloc_trim is not None:
        _malloc_trim(0)
    grams = np.empty((len(kept), n_max, n_max))
    for row, i in enumerate(kept):
        grams[row] = couple_gram(table.vectors[encoded[i][:n_max]],
                                 table.vectors[encoded[n + i][:n_max]], n_max)
    return Couples(grams, np.array([pairs[i].label for i in kept]))


def train_couples(
    couples: Couples, config: TrainConfig
) -> tuple[WeightModel, list[EpochRecord]]:
    """SGD on label-balanced minibatches of prepared couples, with the
    two-step eta schedule.

    eta drops from eta_initial to eta_reduced the first time the mean
    epoch loss deteriorates; at the reduced rate, training stops once the
    epoch-to-epoch improvement falls below stop_delta.
    """
    related = np.flatnonzero(couples.labels == +1)
    nonrelated = np.flatnonzero(couples.labels == -1)
    half = config.batch_size // 2
    if len(related) < half or len(nonrelated) < half:
        raise ValueError(
            f"need at least {half} couples per label, got "
            f"{len(related)} related / {len(nonrelated)} non-related"
        )

    rng = np.random.default_rng(config.seed)
    w = np.full(config.n_max, config.init_weight, dtype=np.float64)
    eta = config.eta_initial
    mean_old = math.inf
    trace: list[EpochRecord] = []
    start = time.monotonic()

    for epoch in range(1, config.max_epochs + 1):
        pos = related[rng.permutation(len(related))]
        neg = nonrelated[rng.permutation(len(nonrelated))]
        n_batches = min(len(pos), len(neg)) // half
        mean_loss = 0.0
        for i in range(1, n_batches + 1):
            batch = np.concatenate((pos[(i - 1) * half : i * half],
                                    neg[(i - 1) * half : i * half]))
            loss_value, grad = batch_loss_and_gradient(
                couples[batch], w, config.loss, config.kappa, config.lam
            )
            if not math.isfinite(loss_value):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {i}; weights={w!r}"
                )
            w = w - eta * grad
            mean_loss = ((i - 1) * mean_loss + loss_value) / i

        trace.append(
            EpochRecord(epoch, mean_loss, eta, time.monotonic() - start)
        )
        if eta > config.eta_reduced and mean_loss > mean_old:
            eta = config.eta_reduced
        elif eta == config.eta_reduced and mean_old - mean_loss < config.stop_delta:
            mean_old = mean_loss
            break
        mean_old = mean_loss

    model = WeightModel(
        n_max=config.n_max,
        weights=w,
        metadata={
            "loss": config.loss,
            "kappa": config.kappa,
            "lambda": config.lam,
            "seed": config.seed,
            "epochs": len(trace),
        },
    )
    return model, trace


def train(
    pairs: Sequence[TextPair],
    table: EmbeddingTable,
    idf: IdfTable,
    config: TrainConfig,
) -> tuple[WeightModel, list[EpochRecord]]:
    """Prepare couples from labeled pairs and run the training loop."""
    couples = prepare_couples(pairs, table, idf, config.n_max)
    return train_couples(couples, config)


def kappa_configs(config: TrainConfig, grid: Sequence[float],
                  folds: int) -> list[TrainConfig]:
    """One median-loss config per kappa in ``grid``; checks ``folds``."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if not grid:
        raise ValueError("kappa grid is empty")
    return [replace(config, kappa=kappa, loss="median") for kappa in grid]


def grid_search_kappa(
    pairs: Sequence[TextPair],
    table: EmbeddingTable,
    idf: IdfTable,
    config: TrainConfig,
    grid: Sequence[float] = KAPPA_GRID,
    folds: int = FOLDS,
) -> tuple[float, dict[float, float]]:
    """Pick kappa by k-fold cross-validated split error (median loss).

    Folds are stratified by label.  Ties break toward the smaller kappa;
    a fold that fails to train scores that kappa as error 1.0.  Every
    kappa is checked, as a TrainConfig, before any couple is prepared.
    """
    fold_configs = kappa_configs(config, grid, folds)

    couples = prepare_couples(pairs, table, idf, config.n_max)
    # A couple's fold is its position among the couples of its label,
    # modulo folds, so every fold holds both labels in proportion.
    related = couples.labels == +1
    rank = np.where(related, np.cumsum(related), np.cumsum(~related)) - 1
    fold = rank % folds

    scores: dict[float, float] = {}
    for fold_config in fold_configs:
        errors = []
        for k in range(folds):
            held_out = couples[fold == k]
            try:
                model, _ = train_couples(couples[fold != k], fold_config)
                held_d, _ = _distances_and_gradients(held_out, model.weights)
                _, err = evaluate.optimal_split(held_d, held_out.labels)
                errors.append(err)
            except (ValueError, FloatingPointError) as exc:
                warnings.warn(
                    f"fold {k} failed for kappa={fold_config.kappa}: {exc}")
                errors.append(1.0)
        scores[float(fold_config.kappa)] = float(np.mean(errors))

    best = min(scores, key=lambda k: (scores[k], k))
    return best, scores
