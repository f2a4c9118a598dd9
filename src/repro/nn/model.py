"""Mini-batch training loop with the paper's protocol.

The trainer implements exactly the optimisation recipe of Section 5.1:
RMSprop (lr 0.01), learning-rate halving after 5 epochs without loss
improvement, batch size from {32, 256}, and per-epoch metric history so
the GIN-style epoch-selection protocol (and the Fig. 6/7 representational
power curves) can be computed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn.callbacks import CheckpointCallback, clip_gradients, global_grad_norm
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.obs.telemetry import TelemetryCallback
from repro.nn.module import Network
from repro.nn.optimizers import Optimizer, RMSprop
from repro.nn.schedulers import ReduceLROnPlateau
from repro.resilience import faults
from repro.utils.rng import as_rng
from repro.utils.validation import check_labels, check_positive

__all__ = [
    "History",
    "Trainer",
    "predict_logits",
    "predict_labels",
    "predict_proba",
]

Inputs = np.ndarray | tuple[np.ndarray, ...]
# An input may also be any object exposing ``shape`` and
# ``take_rows(idx)`` — a row source that builds each mini-batch on
# demand (repro.core.EncodedDataset, repro.stream.EncodedShardStore).
# ``take_rows`` must return exactly what fancy-indexing the dense array
# would, so the training loop below is bitwise-oblivious to which one it
# was given.


@dataclass
class History:
    """Per-epoch training record.

    ``grad_norm`` holds the *pre-clip* global gradient norm — the mean
    over the epoch's batches when clipping is enabled, otherwise the norm
    of the epoch's final batch — so exploding-gradient runs are visible
    even though clipping keeps the applied updates bounded.
    """

    loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)

    def best_epoch(self, by: str = "val_accuracy") -> int:
        """Index of the best epoch under the chosen metric."""
        series = getattr(self, by)
        if not series:
            raise ValueError(f"history has no {by} entries")
        return int(np.argmax(series))

    def state_dict(self) -> dict:
        """Per-epoch series as plain lists (checkpoint payload)."""
        return {
            "loss": list(self.loss),
            "train_accuracy": list(self.train_accuracy),
            "val_accuracy": list(self.val_accuracy),
            "lr": list(self.lr),
            "grad_norm": list(self.grad_norm),
        }

    @classmethod
    def from_state(cls, state: dict) -> "History":
        """Rebuild a history from a :meth:`state_dict` export."""
        return cls(**{key: list(values) for key, values in state.items()})


def _as_tuple(inputs: Inputs) -> tuple[np.ndarray, ...]:
    return inputs if isinstance(inputs, tuple) else (inputs,)


def _take(inputs: Inputs, idx: np.ndarray) -> Inputs:
    parts = tuple(
        a.take_rows(idx) if hasattr(a, "take_rows") else a[idx]
        for a in _as_tuple(inputs)
    )
    return parts if isinstance(inputs, tuple) else parts[0]


def _num_rows(inputs: Inputs) -> int:
    return _as_tuple(inputs)[0].shape[0]


class Trainer:
    """Trains a :class:`Network` for classification.

    Parameters
    ----------
    optimizer_factory:
        Callable building the optimizer from the parameter list; defaults
        to the paper's RMSprop(lr=0.01).
    batch_size:
        Mini-batch size (paper: selected from {32, 256}).
    epochs:
        Training epochs.
    plateau_patience / plateau_factor:
        Learning-rate decay on loss plateau (paper: 5 epochs / 0.5).
    early_stopping:
        Optional :class:`~repro.nn.callbacks.EarlyStopping`; checked
        after every epoch.  Off by default because the paper's
        epoch-selection protocol needs fixed-length histories.
    max_grad_norm:
        Optional global gradient-norm clip applied before each update.
    seed:
        Shuffling seed.
    """

    def __init__(
        self,
        optimizer_factory=None,
        batch_size: int = 32,
        epochs: int = 50,
        plateau_patience: int = 5,
        plateau_factor: float = 0.5,
        early_stopping=None,
        max_grad_norm: float | None = None,
        seed: int | None = 0,
    ) -> None:
        check_positive("batch_size", batch_size)
        check_positive("epochs", epochs)
        if max_grad_norm is not None:
            check_positive("max_grad_norm", max_grad_norm)
        self.optimizer_factory = optimizer_factory or (
            lambda params: RMSprop(params, lr=0.01)
        )
        self.batch_size = batch_size
        self.epochs = epochs
        self.plateau_patience = plateau_patience
        self.plateau_factor = plateau_factor
        self.early_stopping = early_stopping
        self.max_grad_norm = max_grad_norm
        self.seed = seed

    def fit(
        self,
        network: Network,
        inputs: Inputs,
        y: np.ndarray,
        validation: tuple[Inputs, np.ndarray] | None = None,
        epoch_callback=None,
        checkpoint=None,
        resume_from=None,
    ) -> History:
        """Train ``network``; returns the per-epoch :class:`History`.

        ``validation`` adds a per-epoch validation accuracy (used by the
        GIN-style epoch selection).  ``epoch_callback(epoch, history)``
        runs after every epoch (used by the representational-power bench).

        ``checkpoint`` is a
        :class:`~repro.nn.callbacks.CheckpointCallback` (or a bare
        ``CheckpointManager``, snapshotted every epoch): at each epoch
        boundary the full training state — weights, optimizer slots,
        scheduler/early-stopping counters, shuffle and dropout RNG
        streams, metric history — is written atomically.  ``resume_from``
        (a checkpoint file, a checkpoint directory, or a manager)
        restores such a snapshot and continues from the next epoch; the
        resumed run's weights and history are bitwise-identical to an
        uninterrupted one (``tests/resilience/`` proves this at every
        injection point).
        """
        y = check_labels(y)
        n = _num_rows(inputs)
        if y.size != n:
            raise ValueError(f"{n} inputs but {y.size} labels")
        rng = as_rng(self.seed)
        optimizer: Optimizer = self.optimizer_factory(network.parameters())
        scheduler = ReduceLROnPlateau(
            optimizer, factor=self.plateau_factor, patience=self.plateau_patience
        )
        loss_fn = SoftmaxCrossEntropy()
        history = History()
        telemetry = TelemetryCallback()
        checkpoint_cb = _as_checkpoint_callback(checkpoint)

        start_epoch = 0
        if resume_from is not None:
            step, state = _load_resume_state(resume_from)
            network.load_state_dict(state["network"])
            optimizer.load_state_dict(state["optimizer"])
            scheduler.load_state_dict(state["scheduler"])
            if self.early_stopping is not None and state.get("early_stopping"):
                self.early_stopping.load_state_dict(state["early_stopping"])
            rng.bit_generator.state = state["rng"]
            history = History.from_state(state["history"])
            start_epoch = step + 1
            obs.counter("trainer_resumes_total").inc()
            obs.event("trainer_resume", start_epoch=start_epoch)

        for epoch in range(start_epoch, self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            batch_norms: list[float] = []
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                batch_x = _take(inputs, idx)
                batch_y = y[idx]
                logits = network.forward(batch_x, training=True)
                loss = loss_fn.forward(logits, batch_y)
                network.zero_grad()
                network.backward(loss_fn.backward())
                if self.max_grad_norm is not None:
                    batch_norms.append(
                        clip_gradients(network.parameters(), self.max_grad_norm)
                    )
                optimizer.step()
                epoch_loss += loss * idx.size
                correct += int((logits.argmax(axis=1) == batch_y).sum())
            epoch_loss /= n
            history.loss.append(epoch_loss)
            history.train_accuracy.append(correct / n)
            history.lr.append(optimizer.lr)
            # Pre-clip gradient norm: batch mean under clipping, else the
            # final batch's norm (the gradients are still in place).
            if batch_norms:
                history.grad_norm.append(float(np.mean(batch_norms)))
            else:
                history.grad_norm.append(global_grad_norm(network.parameters()))
            if validation is not None:
                val_x, val_y = validation
                val_pred = predict_labels(network, val_x, self.batch_size)
                history.val_accuracy.append(
                    float(np.mean(val_pred == check_labels(val_y)))
                )
            scheduler.step(epoch_loss)
            # lr is passed explicitly: the telemetry event reports the
            # rate *after* any ReduceLROnPlateau decay.
            telemetry(epoch, history, lr=optimizer.lr)
            if epoch_callback is not None:
                epoch_callback(epoch, history)
            # The stop decision is made *before* the checkpoint so the
            # early-stopping counters inside the snapshot are exactly
            # those of an uninterrupted run at this boundary.
            stop = self.early_stopping is not None and self.early_stopping.should_stop(
                history
            )
            if checkpoint_cb is not None:
                checkpoint_cb(
                    epoch,
                    self._snapshot(
                        epoch, network, optimizer, scheduler, rng, history
                    ),
                )
            faults.check("epoch", epoch)
            if stop:
                break
        return history

    def _snapshot(
        self, epoch, network, optimizer, scheduler, rng, history
    ) -> dict:
        """Full training state at the end of ``epoch`` (for checkpoints)."""
        return {
            "epoch": int(epoch),
            "network": network.state_dict(),
            "optimizer": optimizer.state_dict(),
            "scheduler": scheduler.state_dict(),
            "early_stopping": (
                self.early_stopping.state_dict()
                if self.early_stopping is not None
                else None
            ),
            "rng": rng.bit_generator.state,
            "history": history.state_dict(),
        }


def _as_checkpoint_callback(checkpoint) -> CheckpointCallback | None:
    """Accept a CheckpointCallback, a manager, or None."""
    if checkpoint is None or isinstance(checkpoint, CheckpointCallback):
        return checkpoint
    return CheckpointCallback(checkpoint)


def _load_resume_state(resume_from) -> tuple[int, dict]:
    """Resolve ``resume_from`` (manager / directory / file) to (step, state)."""
    import os

    from repro.resilience.checkpoint import CheckpointManager, load_checkpoint

    if hasattr(resume_from, "load_latest"):
        loaded = resume_from.load_latest()
    elif os.path.isdir(resume_from):
        loaded = CheckpointManager(resume_from).load_latest()
    else:
        loaded = load_checkpoint(resume_from)
    if loaded is None:
        raise FileNotFoundError(
            f"no usable checkpoint to resume from in {resume_from!r}"
        )
    return loaded


def predict_logits(
    network: Network, inputs: Inputs, batch_size: int = 256
) -> np.ndarray:
    """Forward pass in inference mode, batched."""
    n = _num_rows(inputs)
    outputs = []
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        outputs.append(network.forward(_take(inputs, idx), training=False))
    return np.concatenate(outputs, axis=0)


def predict_labels(
    network: Network, inputs: Inputs, batch_size: int = 256
) -> np.ndarray:
    """Predicted class indices."""
    return predict_logits(network, inputs, batch_size).argmax(axis=1)


def predict_proba(
    network: Network, inputs: Inputs, batch_size: int = 256
) -> np.ndarray:
    """Predicted class probabilities."""
    return softmax(predict_logits(network, inputs, batch_size))
