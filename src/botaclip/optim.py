"""Adam/AdamW stepper with decoupled weight decay, plus early stopping."""

from __future__ import annotations

import numpy as np

from .encoders import GradientTape, Param
from .errors import ShapeMismatch
from .losses import TAU_CLAMP

IMPROVEMENT_EPS = 1e-12


class AdamW:
    """Bias-corrected Adam; decay multiplies parameters by (1 - lr*wd)
    before the Adam delta, so weight_decay=0 is plain Adam. Scalar
    parameters flagged decay=False (temperature, bias) are never decayed.
    A parameter no gradient reached takes a zero gradient, so it decays.
    The betas and eps are fixed at PyTorch's defaults.

    step() updates values and moments in place, CHUNK elements at a time
    through two scratch buffers that stay in cache. Each element goes
    through the expressions in its comments in their operation order, so
    the result is bit-identical to evaluating them on whole arrays."""

    CHUNK = 32768
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Param], *, lr: float,
                 weight_decay: float):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        if not 0 < lr < np.inf:  # NaN fails both bounds
            raise ValueError(f"lr must be in (0, inf), got {lr}")
        if not 0 <= weight_decay < np.inf:
            raise ValueError(f"weight_decay must be in [0, inf), got "
                             f"{weight_decay}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.value) for p in self.params}
        self._v = {p.name: np.zeros_like(p.value) for p in self.params}
        self._scratch = np.empty((2, self.CHUNK))

    def step(self, tape: GradientTape) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = self.BETA1, self.BETA2, self.lr, self.EPS
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        shrink = 1.0 - lr * self.weight_decay
        for p in self.params:
            g = tape.get(p)
            if g.shape != p.value.shape:
                raise ShapeMismatch(p.name)
            decay = self.weight_decay > 0 and p.decay
            # views: Param values and the moments are C-contiguous
            flat, g = p.value.reshape(-1), g.reshape(-1)
            m, v = self._m[p.name].reshape(-1), self._v[p.name].reshape(-1)
            for lo in range(0, flat.size, self.CHUNK):
                s = slice(lo, lo + self.CHUNK)
                pc, mc, vc, gc = flat[s], m[s], v[s], g[s]
                a, b = self._scratch[:, :pc.size]
                if decay:
                    pc *= shrink
                mc *= b1                                   # b1*m + (1-b1)*g
                mc += np.multiply(gc, 1 - b1, out=a)
                vc *= b2                                   # b2*v + (1-b2)*g*g
                np.multiply(gc, 1 - b2, out=a)
                a *= gc
                vc += a
                np.divide(mc, bc1, out=a)      # lr*(m/bc1) / (sqrt(v/bc2)+eps)
                a *= lr
                np.sqrt(np.divide(vc, bc2, out=b), out=b)
                b += eps
                a /= b
                pc -= a
            if p.name == "scalars.tau":
                np.clip(p.value, -TAU_CLAMP, TAU_CLAMP, out=p.value)


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement.

    Improvement means the validation loss drops by more than 1e-12 below the
    best seen so far. Callers keep the parameters of the epoch that
    `improved` last reported and restore them when training ends.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best_loss = np.inf
        self.best_epoch = -1
        self._stale = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best_loss - IMPROVEMENT_EPS:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self._stale = 0
            return False
        self._stale += 1
        return self._stale >= self.patience

    @property
    def improved(self) -> bool:
        return self._stale == 0
