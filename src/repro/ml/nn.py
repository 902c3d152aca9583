"""From-scratch dense neural network (the MLXC model's F_DNN).

A multilayer perceptron with ELU activations, matching the paper's MLXC
architecture (5 hidden layers x 80 neurons).  What the rest of the stack
relies on:

* the passes that loop over rows — ``input_jacobian``,
  ``value_and_param_grad`` and ``residual_and_param_grad`` — run over
  blocks of ``BLOCK_ROWS`` rows, so a pass holds one block's activations,
  slopes, tangents and adjoints (O(block) memory) and never a full-grid
  (n, width) array;
* ``input_jacobian`` is back-propagation to the *inputs*: per block one
  forward and one weight-free reverse sweep give ``F`` and ``dF/df``, which
  is all the XC potential needs (:mod:`repro.xc.mlxc`);
* the trainer's mixed derivative ``d/d theta [a . dF/df]`` is real
  forward-over-reverse: ``value_and_param_grad`` with a direction runs, per
  block, a forward pass that fills a cache, ``forward_tangent`` along the
  direction and one ``backward`` sweep that takes the adjoints of both the
  output and its tangent, and sums the blocks' dW and db
  (:mod:`repro.ml.training`).  A forward pass that fills a cache stores each
  hidden layer's ELU' beside its activation, computed from the activation's
  own ``exp``; ELU'' z' is the layer's own tangent on the exponential
  branch.  So no pass evaluates a second ``exp`` or recomputes a slope;
* the forward pass stays **dtype-agnostic** — the complex-step oracle in
  ``tests/reference`` differentiates through it;
* the network holds its parameters and nothing else: every per-call array
  lives in the caller's ``cache`` or in the pass's own block loop, so
  threads may share one network;
* parameters are exposed as a flat vector for the Adam optimizer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.atomicio import read_artifact, write_artifact

__all__ = ["MLP", "Adam", "BLOCK_ROWS", "elu", "elu_prime", "row_blocks"]

#: rows per block of the row-looping passes.  A block's working set is about
#: 20 (128, 80) float64 arrays, 1.6 MB, which fits a 2 MiB per-core L2.  On a
#: 2-vCPU Xeon with that L2, 128 rows gave the fastest training epoch of 64 to
#: 512; 256 rows ran about 10 % slower at 1.6x the traced peak (EXPERIMENTS.md
#: "MLXC training in row blocks")
BLOCK_ROWS = 128


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK_ROWS`` rows covering ``range(n)``."""
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """ELU activation, complex-safe (branch on the real part)."""
    pos = np.real(x) > 0
    return np.where(pos, x, alpha * (np.exp(np.where(pos, 0.0, x)) - 1.0))


def elu_prime(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Derivative of :func:`elu` (one-sided at the origin kink)."""
    pos = np.real(x) > 0
    return np.where(pos, 1.0, alpha * np.exp(np.where(pos, 0.0, x)))


def _elu_and_prime(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`elu` and :func:`elu_prime` of a real ``z`` from one ``exp``,
    branch-free; the activation is formed in ``z``'s buffer.

    ``e = exp(min(z, 0))`` is exactly 1 on the positive branch, so
    ``max(z, 0) + alpha (e - 1)`` is ``z`` there, and the slope ``alpha e``
    is ``(e - p) alpha + p`` with ``p`` the 0/1 indicator of that branch.
    """
    e = np.minimum(z, 0.0)
    np.exp(e, out=e)
    pos = z > 0
    np.maximum(z, 0.0, out=z)
    t = e - 1.0
    t *= alpha
    z += t
    e -= pos
    e *= alpha
    e += pos
    return z, e


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
    def forward(
        self, X: np.ndarray, cache: list | None = None, *, keep_inputs: bool = True
    ) -> np.ndarray:
        """Forward pass; ``X`` is (n, n_in).

        Appends one ``(input, slope)`` pair per layer to ``cache``: the
        layer's input (``X``, then the hidden activations) and ELU' of the
        pre-activation that produced it (``None`` beside ``X``) — all the
        reverse and tangent passes need.  ``keep_inputs=False`` stores
        ``None`` for the inputs: the slopes are all an input Jacobian's
        reverse sweep reads, and each input held is another (rows, width)
        array.
        """
        a, slope = np.atleast_2d(X), None
        last = len(self.weights) - 1
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            if cache is not None:
                cache.append((a if keep_inputs else None, slope))
            z = a @ W
            z += b
            if li == last:
                a = z
            elif cache is None:
                a = elu(z, self.alpha)
            else:
                a, slope = _elu_and_prime(z, self.alpha)
        return a

    def forward_tangent(
        self, cache: list, dX: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Directional derivative of a cached forward pass along ``dX``.

        Returns ``(d out, tangents)``: the output's tangent (n, n_out) and
        every layer input's tangent, which :meth:`backward` takes.
        """
        t = np.atleast_2d(dX)
        tangents = []
        for li, W in enumerate(self.weights):
            if li:
                t *= cache[li][1]  # t is the last GEMM's own output
            tangents.append(t)
            t = t @ W
        return t, tangents

    def backward(
        self,
        cache: list,
        grad_out: np.ndarray,
        tangents: list[np.ndarray] | None = None,
        grad_tangent: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Reverse pass.  Returns (dW list, db list, dX).

        ``grad_out`` is dL/d(output), shape (n, n_out).  With ``tangents``
        (from :meth:`forward_tangent`) and ``grad_tangent`` = dL/d(output
        tangent), the same sweep also carries the tangent's adjoint, so the
        parameter gradient is that of ``sum(grad_out * out + grad_tangent *
        d out)`` — forward-over-reverse.  ELU'' z' is the layer's own tangent
        where the unit is on its exponential branch and zero elsewhere.
        """
        dW = [None] * len(self.weights)
        db = [None] * len(self.biases)
        delta = np.atleast_2d(grad_out)
        tdelta = grad_tangent
        for li in range(len(self.weights) - 1, -1, -1):
            (a, slope), WT = cache[li], self.weights[li].T
            dW[li] = a.T @ delta
            db[li] = delta.sum(axis=0)
            delta = delta @ WT
            if tangents is not None:
                dW[li] += tangents[li].T @ tdelta
                tdelta = tdelta @ WT
            if li:  # delta and tdelta are this sweep's own GEMM outputs
                delta *= slope
                if tangents is not None:
                    curv = tdelta * tangents[li]
                    curv *= a <= 0
                    delta += curv
                    tdelta *= slope
        return dW, db, delta

    def value_and_param_grad(
        self,
        X: np.ndarray,
        grad_out: np.ndarray,
        dX: np.ndarray | None = None,
        grad_tangent: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Output and flat d(sum(grad_out * output))/d(params).

        With a direction ``dX`` and ``grad_tangent`` = dL/d(output tangent)
        the gradient is that of ``sum(grad_out * out + grad_tangent * d out)``,
        ``d out`` being the output's tangent along ``dX`` (forward-over-
        reverse, :meth:`backward`).  Runs per row block — forward with a
        cache, the tangent, the reverse sweep — and sums the blocks' dW, db.
        """
        X = np.atleast_2d(X)
        out = np.empty((X.shape[0], self.layer_sizes[-1]))
        grad = np.zeros(self.n_params)
        grad_views = self._param_views(grad)
        for blk in row_blocks(X.shape[0]):
            cache: list = []
            out[blk] = self.forward(X[blk], cache)
            tangents, gt = None, None
            if dX is not None:
                _, tangents = self.forward_tangent(cache, dX[blk])
                gt = grad_tangent[blk]
            dW, db, _ = self.backward(cache, grad_out[blk], tangents, gt)
            for view, g in zip(grad_views, dW + db):
                view += g
        return out, grad

    def residual_and_param_grad(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The MSE fit's pass: ``r = output - y`` (n, n_out) and the flat
        gradient of ``sum(r**2) / n``.  Per row block, one forward with a
        cache forms the block's residual and the reverse sweep takes its
        cotangent ``2 r / n``, so the output is computed once per epoch."""
        X = np.atleast_2d(X)
        n = X.shape[0]
        resid = np.empty((n, self.layer_sizes[-1]))
        grad = np.zeros(self.n_params)
        grad_views = self._param_views(grad)
        for blk in row_blocks(n):
            cache: list = []
            r = self.forward(X[blk], cache)
            r -= y[blk]
            resid[blk] = r
            dW, db, _ = self.backward(cache, 2.0 * r / n)
            for view, g in zip(grad_views, dW + db):
                view += g
        return resid, grad

    def input_jacobian(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``F`` (n,) and ``dF/dX`` (n, n_in) of a scalar-output network.

        Back-propagation to the inputs, per row block: one forward pass that
        keeps only the ELU slopes and one reverse sweep that forms no weight
        gradient.  Nothing is cached for a later pass.
        """
        if self.layer_sizes[-1] != 1:
            raise ValueError("input_jacobian implemented for scalar outputs")
        X = np.atleast_2d(X)
        F = np.empty(X.shape[0])
        dF = np.empty(X.shape)
        for blk in row_blocks(X.shape[0]):
            acts: list = []
            out = self.forward(X[blk], acts, keep_inputs=False)
            delta = np.ones_like(out) @ self.weights[-1].T
            for li in range(len(self.weights) - 1, 0, -1):
                delta *= acts[li][1]
                delta = delta @ self.weights[li - 1].T
            F[blk], dF[blk] = out[:, 0], delta
        return F, dF

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
        views = self._param_views(theta)
        self.weights[:] = views[: len(self.weights)]
        self.biases[:] = views[len(self.weights) :]

    def _param_views(self, theta: np.ndarray) -> list[np.ndarray]:
        """The flat ``theta`` as views shaped like the weights, then the biases."""
        views, off = [], 0
        for p in self.weights + self.biases:
            views.append(theta[off : off + p.size].reshape(p.shape))
            off += p.size
        return views

    def _flatten(self, Ws, bs) -> np.ndarray:
        return np.concatenate(
            [np.asarray(w).ravel() for w in Ws] + [np.asarray(b).ravel() for b in bs]
        )

    # -- persistence ---------------------------------------------------------
    WEIGHTS_SCHEMA = "repro-weights/2"

    def save(self, path: str) -> None:
        path = os.fspath(path)
        if not path.endswith(".npz"):  # a bare path gains the archive suffix
            path += ".npz"
        weights = {
            "layer_sizes": list(self.layer_sizes),
            "alpha": self.alpha,
            "params": self.get_params(),
        }
        write_artifact(path, self.WEIGHTS_SCHEMA, weights)

    @classmethod
    def load(cls, path: str) -> "MLP":
        """The network :meth:`save` wrote; a missing, damaged or foreign file
        is refused with :class:`repro.atomicio.ArtifactError` (regenerate the
        shipped weights with ``python examples/mlxc_training.py --save``)."""
        body = read_artifact(path, cls.WEIGHTS_SCHEMA)
        net = cls(tuple(body["layer_sizes"]), alpha=body["alpha"])
        net.set_params(body["params"])
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
