"""End-to-end optimization: loss assembly, SGD, straight-through masks.

One training step runs, in order: forward, task gradient, per-layer
backward, mask gradient plus the weighted orthogonality gradient, the
straight-through step that writes the next mask bits, then plain SGD on
filters, biases and head weights.  Plain SGD (no momentum, no decay) is
the reference optimizer; loss reductions are mean-over-batch.  A step's
``flip_rate`` is the fraction of mask bits its own update changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from maskconv.convref import ShapeError
from maskconv.network import Network

LOSSES = ("cross-entropy", "mean-squared-error")


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


class DataError(ValueError):
    """Raised on a dataset that the model or the loss cannot take."""


@dataclass
class TrainConfig:
    lr: float = 0.1
    lam: float = 0.1
    epochs: int = 2
    batch: int = 64
    seed: int = 0
    loss: str = "cross-entropy"

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"orthogonality weight must be finite and >= 0, got {self.lam}")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError(f"epochs and batch must be >= 1, got {self.epochs} and {self.batch}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its logits gradient; labels are class ids."""
    labels = np.asarray(labels)
    n, n_classes = logits.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(
            f"label out of range: saw {labels.min()}..{labels.max()} "
            f"for {n_classes} classes"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = -float(np.mean(log_p[np.arange(n), labels]))
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(logits.dtype)


def mean_squared_error(preds: np.ndarray, targets: np.ndarray):
    """0.5 * mean-over-batch squared error and its gradient."""
    diff = preds - targets
    n = preds.shape[0]
    loss = 0.5 * float(np.sum(diff * diff)) / n
    return loss, (diff / n).astype(preds.dtype)


def task_loss_and_grad(logits, targets, loss: str):
    if loss == "cross-entropy":
        return softmax_cross_entropy(logits, targets)
    return mean_squared_error(logits, targets)


def train_step(batch, model: Network, config: TrainConfig):
    """One optimization step; returns (total loss, metrics in log order)."""
    xb, yb = batch
    logits = model.forward(xb)
    task, grad_logits = task_loss_and_grad(logits, yb, config.loss)
    ortho = model.ortho_loss()
    loss = task + config.lam * ortho
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite loss (task={task}, ortho={ortho}); "
            f"logit range [{logits.min()}, {logits.max()}]"
        )
    metrics = {"loss": loss, "task_loss": task, "ortho_loss": ortho}
    if config.loss == "cross-entropy":
        metrics["accuracy"] = float(np.mean(np.argmax(logits, axis=1) == yb))
    model.backward(grad_logits)
    metrics["flip_rate"] = model.update_masks(config.lr, config.lam)
    model.sgd(config.lr)
    return loss, metrics


def format_log_record(step: int, metrics: dict) -> str:
    """``step=`` then every metric, in its order, at 6 decimals."""
    return " ".join([f"step={step}", *(f"{key}={value:.6f}" for key, value in metrics.items())])


@dataclass
class History:
    records: list[dict] = field(default_factory=list)

    def append(self, metrics: dict):
        self.records.append(metrics)


def fit(
    model: Network,
    images: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    log=None,
    steps: int | None = None,
) -> History:
    """Mini-batch training over a fixed dataset.

    Shuffling comes from the config seed, so two runs with the same seed
    visit identical batches.  ``log`` receives one line-delimited record
    per step.  ``steps`` caps the total step count; it must be >= 1.
    """
    if steps is not None and steps < 1:
        raise ValueError(f"step cap must be >= 1, got {steps}")
    if not len(images):
        raise DataError("no images to train on")
    rng = np.random.default_rng(config.seed)
    history = History()
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), config.batch):
            idx = order[start : start + config.batch]
            loss, metrics = train_step((images[idx], labels[idx]), model, config)
            step += 1
            history.append({"step": step, **metrics})
            if log is not None:
                log(format_log_record(step, metrics))
            if steps is not None and step >= steps:
                return history
    return history


def evaluate(model: Network, images: np.ndarray, labels: np.ndarray, batch: int = 256) -> float:
    """Classification accuracy over a dataset.

    The layers keep no activations afterwards, as after :func:`fit`.
    """
    if not len(images):
        raise DataError("no images to evaluate")
    hits = 0
    for start in range(0, len(images), batch):
        logits = model.forward(images[start : start + batch])
        if logits.ndim != 2 or not logits.shape[1]:
            raise ShapeError(f"cannot classify: the model gives {logits.shape} outputs, not B x classes")
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[start : start + batch]))
    model.release()  # what each forward saved for a backward that never comes
    return hits / len(images)
