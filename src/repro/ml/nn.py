"""From-scratch dense neural network (the MLXC model's F_DNN).

A multilayer perceptron with ELU activations, matching the paper's MLXC
architecture (5 hidden layers x 80 neurons).  Three properties matter here:

* the forward pass is **dtype-agnostic** — it accepts complex inputs, which
  lets the complex-step machinery of :mod:`repro.xc.base` extract exact
  functional derivatives through the network, and lets the trainer compute
  mixed parameter/input second derivatives (see :mod:`repro.ml.training`);
* reverse-mode parameter gradients (``backward``) are hand-written and work
  for complex activations with real weights (no conjugation — we
  differentiate a holomorphic map);
* parameters are exposed as a flat vector for the Adam optimizer.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.atomicio import atomic_write

__all__ = ["MLP", "Adam", "elu", "elu_prime"]


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """ELU activation, complex-safe (branch on the real part)."""
    pos = np.real(x) > 0
    return np.where(pos, x, alpha * (np.exp(np.where(pos, 0.0, x)) - 1.0))


def elu_prime(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Derivative of :func:`elu` (one-sided at the origin kink)."""
    pos = np.real(x) > 0
    return np.where(pos, 1.0, alpha * np.exp(np.where(pos, 0.0, x)))


class MLP:
    """Fully connected network with ELU hidden activations, linear output."""

    def __init__(
        self,
        layer_sizes: tuple[int, ...],
        seed: int = 0,
        alpha: float = 1.0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.alpha = float(alpha)
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for nin, nout in zip(layer_sizes[:-1], layer_sizes[1:]):
            # He-style initialization, adequate for ELU
            self.weights.append(rng.normal(0.0, np.sqrt(2.0 / nin), (nin, nout)))
            self.biases.append(np.zeros(nout))

    # -- forward / backward ------------------------------------------------
    def forward(self, X: np.ndarray, cache: list | None = None) -> np.ndarray:
        """Forward pass; ``X`` is (n, n_in).  Appends (pre, post) to cache."""
        a = np.atleast_2d(X)
        if cache is not None:
            cache.append(a)
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            last = li == len(self.weights) - 1
            a = z if last else elu(z, self.alpha)
            if cache is not None:
                cache.append((z, a))
        return a

    def backward(
        self, cache: list, grad_out: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Reverse pass.  Returns (dW list, db list, dX).

        ``grad_out`` is dL/d(output), shape (n, n_out).  Complex activations
        with real weights propagate holomorphically (gradients come back
        complex; the caller decides what to do with the imaginary part).
        """
        X = cache[0]
        layers = cache[1:]
        dW = [None] * len(self.weights)
        db = [None] * len(self.biases)
        delta = np.atleast_2d(grad_out)
        for li in range(len(self.weights) - 1, -1, -1):
            z, _a = layers[li]
            if li != len(self.weights) - 1:
                delta = delta * elu_prime(z, self.alpha)
            a_prev = X if li == 0 else layers[li - 1][1]
            dW[li] = a_prev.T @ delta
            db[li] = delta.sum(axis=0)
            delta = delta @ self.weights[li].T
        return dW, db, delta

    def value_and_param_grad(
        self, X: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Output and flat d(sum(grad_out * output))/d(params)."""
        cache: list = []
        out = self.forward(X, cache)
        dW, db, _ = self.backward(cache, grad_out)
        return out, self._flatten(dW, db)

    def input_jacobian(self, X: np.ndarray) -> np.ndarray:
        """d out_k / d X_j for a scalar-output network: returns (n, n_in)."""
        if self.layer_sizes[-1] != 1:
            raise ValueError("input_jacobian implemented for scalar outputs")
        cache: list = []
        self.forward(X, cache)
        _, _, dX = self.backward(cache, np.ones((np.atleast_2d(X).shape[0], 1)))
        return dX

    # -- parameter vector interface ----------------------------------------
    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def get_params(self) -> np.ndarray:
        return self._flatten(self.weights, self.biases)

    def set_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.n_params:
            raise ValueError("parameter vector has wrong length")
        off = 0
        for i, w in enumerate(self.weights):
            self.weights[i] = theta[off : off + w.size].reshape(w.shape)
            off += w.size
        for i, b in enumerate(self.biases):
            self.biases[i] = theta[off : off + b.size].reshape(b.shape)
            off += b.size

    def _flatten(self, Ws, bs) -> np.ndarray:
        return np.concatenate(
            [np.asarray(w).ravel() for w in Ws] + [np.asarray(b).ravel() for b in bs]
        )

    # -- persistence ---------------------------------------------------------
    #: arrays every weights archive must contain (``checksum`` is optional
    #: for archives written before it was introduced)
    WEIGHT_KEYS = ("layer_sizes", "alpha", "params")

    def save(self, path: str) -> None:
        params = self.get_params()
        digest = hashlib.sha256(params.tobytes()).digest()
        path = os.fspath(path)
        if not path.endswith(".npz"):  # np.savez's rule for bare paths
            path += ".npz"
        with atomic_write(path) as f:
            np.savez(
                f,
                layer_sizes=np.array(self.layer_sizes),
                alpha=self.alpha,
                params=params,
                checksum=np.frombuffer(digest, dtype=np.uint8),
            )

    @classmethod
    def load(cls, path: str | io.IOBase) -> "MLP":
        try:
            data = np.load(path)
        except (zipfile.BadZipFile, ValueError, OSError) as err:
            raise ValueError(
                f"invalid MLP weights file {path!r}: not a readable .npz "
                f"archive ({err}); regenerate it with "
                "`python examples/mlxc_training.py --save`"
            ) from err
        missing = [k for k in cls.WEIGHT_KEYS if k not in data.files]
        if missing:
            raise ValueError(
                f"invalid MLP weights file {path!r}: missing array(s) {missing}"
            )
        params = np.asarray(data["params"], dtype=float)
        if "checksum" in data.files:
            digest = hashlib.sha256(params.tobytes()).digest()
            stored = bytes(np.asarray(data["checksum"], dtype=np.uint8))
            if stored != digest:
                raise ValueError(
                    f"corrupt MLP weights file {path!r}: SHA-256 checksum "
                    "mismatch (file was truncated or re-encoded)"
                )
        net = cls(tuple(int(s) for s in data["layer_sizes"]), alpha=float(data["alpha"]))
        net.set_params(params)
        return net


@dataclass
class Adam:
    """Standard Adam optimizer over a flat parameter vector."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(theta)
            self._v = np.zeros_like(theta)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad**2
        mhat = self._m / (1 - self.beta1**self._t)
        vhat = self._v / (1 - self.beta2**self._t)
        return theta - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_dict(self) -> dict:
        """Checkpointable optimizer state (moments + step count).

        The moments bias every future update, so a bit-for-bit training
        resume must restore them along with the parameters.
        """
        return {
            "m": None if self._m is None else self._m.copy(),
            "v": None if self._v is None else self._v.copy(),
            "t": self._t,
        }

    def load_state_dict(self, state: dict) -> None:
        self._m = None if state["m"] is None else np.asarray(state["m"]).copy()
        self._v = None if state["v"] is None else np.asarray(state["v"]).copy()
        self._t = int(state["t"])
