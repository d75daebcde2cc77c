"""Two-track signed graph convolutional encoder with a 3-class pair classifier.

The encoder keeps separate "friendly" and "hostile" embedding tracks.  Layer 1
aggregates positive neighbors into the friendly track and negative neighbors
into the hostile track; deeper layers cross-wire them (a friend's enemy feeds
the hostile track and vice versa):

    layer 1:   H_pos = relu(W_pos [A+ H0, H0])
               H_neg = relu(W_neg [A- H0, H0])
    layer l>1: H_pos = relu(W_pos [A+ H_pos', A- H_neg', H_pos'])
               H_neg = relu(W_neg [A+ H_neg', A- H_pos', H_neg'])

A+ / A- are row-normalized positive/negative adjacencies (zero-degree rows
stay zero) and the final embedding is Z = [H_pos, H_neg].  Node pairs are
classified into {positive edge, negative edge, no edge} by a multinomial
logistic layer on the concatenated pair embedding [z_u, z_v]; training
minimizes the mean negative log softmax over labeled edges plus freshly
resampled non-adjacent pairs for the no-edge class.

Gradients are hand-derived reverse mode over this closed-form architecture;
training is full batch and deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .graph import NEG, POS, EdgeColumns, EdgeSample, SignedGraph, _columns

log = logging.getLogger(__name__)

# class-column order of the pair classifier
CLASS_POS, CLASS_NEG, CLASS_NONE = 0, 1, 2
LABEL_TO_CLASS = {POS: CLASS_POS, NEG: CLASS_NEG, 0: CLASS_NONE}

# fixed node input features EncoderConfig accepts; see its docstring
INPUT_FEATURES = ("spectral", "seeded-random")

_CHECKPOINT_MAGIC = b"SIGAUG01"
_CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch} (non-finite loss)")
        self.epoch = epoch


def _is_number(value, whole: bool = False) -> bool:
    """An int or float (only an int if ``whole``); a bool is neither, so ``true`` is not 1."""
    return isinstance(value, int if whole else (int, float)) and not isinstance(value, bool)


def _require_numbers(config, *names: str, whole: bool = False) -> None:
    """Raise ``ValueError`` naming each field of ``config`` that ``_is_number`` refuses."""
    for name in names:
        value = getattr(config, name)
        if not _is_number(value, whole):
            raise ValueError(f"{name} must be a {'whole ' * whole}number, got {value!r}")


@dataclass
class EncoderConfig:
    """Architecture and optimization knobs; training always uses Adam.

    ``input_features`` picks the fixed H0: ``spectral`` (truncated SVD of the
    signed adjacency, the strongest signal and the default) or
    ``seeded-random`` (uniform noise, so nodes are distinguishable only
    through their neighborhoods: the control without spectral features).
    """

    embed_dim: int = 64
    layers: int = 2
    learning_rate: float = 0.01
    epochs: int = 300
    seed: int = 0
    input_features: str = "spectral"

    def __post_init__(self):
        _require_numbers(self, "embed_dim", "layers", "epochs", "seed", whole=True)
        _require_numbers(self, "learning_rate")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.embed_dim < 2:
            raise ValueError("embed_dim must be >= 2")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not isinstance(self.input_features, str):
            raise ValueError(f"input_features must be a string, got {self.input_features!r}")
        if self.input_features not in INPUT_FEATURES:
            raise ValueError(f"unknown input_features {self.input_features!r}")


@dataclass
class EncoderState:
    """All learnable parameters plus the fixed input features.

    ``pos_weights[l]`` / ``neg_weights[l]`` are the track weights of layer
    l+1; ``mlg_weights`` maps a concatenated pair embedding (width 2 * zdim)
    to the three class scores.  ``embeddings`` is filled by ``forward`` and
    kept in sync after training.
    """

    pos_weights: list[np.ndarray]
    neg_weights: list[np.ndarray]
    mlg_weights: np.ndarray
    input_features: np.ndarray
    embeddings: np.ndarray | None = None
    init_weight_norm: float = 0.0
    epochs_trained: int = 0
    loss_history: list[float] = field(default_factory=list)

    @property
    def embed_dim(self) -> int:
        return self.pos_weights[-1].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.pos_weights)

    @property
    def num_nodes(self) -> int:
        return self.input_features.shape[0]

    def parameters(self) -> list[np.ndarray]:
        return [*self.pos_weights, *self.neg_weights, self.mlg_weights]

    def weight_norm(self) -> float:
        return math.sqrt(sum(float((p * p).sum()) for p in self.parameters()))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def _spectral_features(graph: SignedGraph, dim: int, seed: int) -> np.ndarray:
    """Truncated SVD of the signed adjacency, scaled by singular values.

    Deterministic for a fixed seed (fixed ARPACK start vector, canonical
    column signs); columns beyond the attainable rank are zero.
    """
    n = graph.num_nodes
    feats = np.zeros((n, dim))
    k = min(dim, n - 1)
    if k < 1 or graph.edge_count == 0:
        return feats
    rng = _rng(seed, stream=2)
    v0 = rng.standard_normal(n)
    u, s, _ = sparse.linalg.svds(graph.signed_adjacency(), k=k, v0=v0)
    order = np.argsort(-s)
    u, s = u[:, order], s[order]
    for j in range(u.shape[1]):
        pivot = int(np.argmax(np.abs(u[:, j])))
        if u[pivot, j] < 0:
            u[:, j] = -u[:, j]
    feats[:, :k] = u * s
    return feats


def init_state(graph: SignedGraph, config: EncoderConfig) -> EncoderState:
    """Seeded uniform Glorot weights and input features."""
    rng = _rng(config.seed, stream=0)
    n, d = graph.num_nodes, config.embed_dim
    if config.input_features == "spectral":
        h0 = _spectral_features(graph, d, config.seed)
    else:
        h0 = rng.uniform(-1.0, 1.0, size=(n, d))
    pos_weights: list[np.ndarray] = []
    neg_weights: list[np.ndarray] = []
    for layer in range(config.layers):
        fan_in = 2 * d if layer == 0 else 3 * d
        pos_weights.append(_glorot(rng, d, fan_in))
        neg_weights.append(_glorot(rng, d, fan_in))
    theta = _glorot(rng, 4 * d, 3).reshape(4 * d, 3)
    state = EncoderState(
        pos_weights=pos_weights,
        neg_weights=neg_weights,
        mlg_weights=theta,
        input_features=h0,
    )
    state.init_weight_norm = state.weight_norm()
    return state


# -- forward / backward ---------------------------------------------------


def _adjacency_pair(graph: SignedGraph) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    return graph.adjacency(POS), graph.adjacency(NEG)


def _layer0_inputs(
    a_pos: sparse.csr_matrix, a_neg: sparse.csr_matrix, h0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Layer-1 inputs ``([A+ H0, H0], [A- H0, H0])``; fixed while H0 and the graph are."""
    return np.hstack([a_pos @ h0, h0]), np.hstack([a_neg @ h0, h0])


def _forward(
    a_pos: sparse.csr_matrix,
    a_neg: sparse.csr_matrix,
    state: EncoderState,
    keep_caches: bool = False,
    layer0: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Embeddings Z plus per-layer caches; ``layer0`` reuses precomputed layer-1 inputs.

    Each layer's two GEMMs write into the halves of one ``(n, 2d)`` array and
    ReLU runs in place, so the last layer's array is Z.  A deeper layer
    copies the previous layer's output into its two ``(n, 3d)`` inputs and
    frees it before allocating its own, so no two outputs are held at once.
    With ``keep_caches`` each layer appends ``(x_pos, x_neg, active)``: its
    two inputs and the boolean ReLU mask ``pre-activation > 0`` over both
    halves, all that the backward pass reads of the pre-activations.
    """
    n, d = state.num_nodes, state.embed_dim
    h_pos = h_neg = None
    caches = []
    for layer, (w_pos, w_neg) in enumerate(zip(state.pos_weights, state.neg_weights)):
        if layer == 0:
            if layer0 is None:
                layer0 = _layer0_inputs(a_pos, a_neg, state.input_features)
            x_pos, x_neg = layer0
        else:
            x_pos = np.empty((n, 3 * d))
            x_pos[:, :d] = a_pos @ h_pos
            x_pos[:, d : 2 * d] = a_neg @ h_neg
            x_pos[:, 2 * d :] = h_pos
            x_neg = np.empty_like(x_pos)
            x_neg[:, :d] = a_pos @ h_neg
            x_neg[:, d : 2 * d] = a_neg @ h_pos
            x_neg[:, 2 * d :] = h_neg
            del z, h_pos, h_neg  # the inputs hold all this layer reads of them
        z = np.empty((n, 2 * d))
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(x_pos, w_pos.T, out=z[:, :d])
            np.matmul(x_neg, w_neg.T, out=z[:, d:])
        if not np.isfinite(z).all():
            raise FloatingPointError(f"non-finite activations at layer {layer + 1}")
        if keep_caches:
            caches.append((x_pos, x_neg, z > 0))
        np.maximum(z, 0.0, out=z)
        h_pos, h_neg = z[:, :d], z[:, d:]
    return z, caches


def forward(graph: SignedGraph, state: EncoderState) -> np.ndarray:
    """Run message passing and return (and store) the embedding matrix Z."""
    a_pos, a_neg = _adjacency_pair(graph)
    z, _ = _forward(a_pos, a_neg, state)
    state.embeddings = z
    return z


def _backward(
    a_pos_t: sparse.spmatrix,
    a_neg_t: sparse.spmatrix,
    state: EncoderState,
    caches,
    d_hpos: np.ndarray,
    d_hneg: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight gradients of every layer, from the gradients of the last layer's outputs.

    Consumes ``caches``, the ``(x_pos, x_neg, active)`` tuples of
    ``_forward``: each is popped off the list and released once that
    layer's weight gradients are computed, so the backward pass holds one
    layer's cache at a time.  ``d_hpos`` and ``d_hneg`` are masked in
    place: each layer multiplies its output gradients by its ReLU mask
    where they lie, so the caller's arrays (``_train_loop`` passes the
    halves of dZ) hold the last layer's pre-activation gradients afterwards.
    """
    d = state.embed_dim
    n_layers = state.num_layers
    g_pos: list[np.ndarray] = [np.empty(0)] * n_layers
    g_neg: list[np.ndarray] = [np.empty(0)] * n_layers
    for layer in reversed(range(n_layers)):
        x_pos, x_neg, active = caches.pop()
        dpre_pos = np.multiply(d_hpos, active[:, :d], out=d_hpos)
        dpre_neg = np.multiply(d_hneg, active[:, d:], out=d_hneg)
        del d_hpos, d_hneg
        g_pos[layer] = dpre_pos.T @ x_pos
        g_neg[layer] = dpre_neg.T @ x_neg
        del x_pos, x_neg, active
        if layer == 0:
            break  # input features are fixed
        # x_pos blocks: [A+ h_pos', A- h_neg', h_pos']
        dx = dpre_pos @ state.pos_weights[layer]
        del dpre_pos
        d_hpos = a_pos_t @ dx[:, :d]
        d_hpos += dx[:, 2 * d :]
        d_hneg = a_neg_t @ dx[:, d : 2 * d]
        del dx
        # x_neg blocks: [A+ h_neg', A- h_pos', h_neg']
        dx = dpre_neg @ state.neg_weights[layer]
        del dpre_neg
        d_hneg += a_pos_t @ dx[:, :d]
        d_hneg += dx[:, 2 * d :]
        d_hpos += a_neg_t @ dx[:, d : 2 * d]
        del dx
    return g_pos, g_neg


def _as_index_arrays(
    samples: Sequence[tuple[int, int, int]] | Sequence[EdgeSample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, class)`` arrays of edge samples or of ``(u, v, label)`` tuples."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    if isinstance(samples, EdgeColumns) or isinstance(samples[0], EdgeSample):
        u, v, label = _columns(samples)
    else:
        u, v, label = np.asarray(samples, dtype=np.int64).reshape(-1, 3).T
    cls = np.select([label == k for k in LABEL_TO_CLASS], list(LABEL_TO_CLASS.values()), -1)
    if (cls < 0).any():
        raise KeyError(int(label[np.argmax(cls < 0)]))
    return u, v, cls


def _pair_logit_fn(
    z: np.ndarray, theta: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    # (u, v) -> [z_u, z_v] @ theta without the (m x 2 zdim) pair matrix:
    # project once (n x k), then gather per pair.  theta is (2 zdim, k) for
    # this 3-class classifier or (2 zdim,) for evalbench's binary sign head.
    zdim = z.shape[1]
    z_top = z @ theta[:zdim]
    z_bot = z @ theta[zdim:]

    def logits(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = z_top[u]
        out += z_bot[v]
        return out

    return logits


def _pair_logits(z: np.ndarray, theta: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return _pair_logit_fn(z, theta)(u, v)


def _scatter_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum ``values`` into ``n`` entries by ``index``: the transpose of a gather.

    Each output starts at 0.0 and adds in index order, bit-identical to
    ``np.add.at`` on zeros.
    """
    return np.bincount(index, weights=values, minlength=n)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    return expv / expv.sum(axis=1, keepdims=True)


def mlg_loss(
    z: np.ndarray,
    samples: Sequence[tuple[int, int, int]] | Sequence[EdgeSample],
    theta: np.ndarray,
) -> float:
    """Mean negative log softmax of the true class over labeled pairs.

    Accepts EdgeSample (label = sign) or (u, v, label) tuples with label in
    {+1, -1, 0}; 0 means "no edge".
    """
    return _loss_and_mlg_grads(z, theta, *_as_index_arrays(samples))[0]


# rows of dZ per block of the loss's second product (at least 2); bounds that temporary
_LOSS_BLOCK_ROWS = 1024


def _loss_and_mlg_grads(
    z: np.ndarray,
    theta: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    cls: np.ndarray,
    dz_out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus gradients w.r.t. theta and Z for one full batch.

    The logits are class-major: row c of one ``(3, m)`` array holds every
    pair's class-c logit, gathered from the two ``(n, 3)`` projections of Z,
    and is shifted, exponentiated and turned into its logit gradient in
    place.  Each operation is the row-major one's, element for element and
    in the same order (the exponentials are summed as (e0 + e1) + e2), so
    the results are bit-identical to it.

    dZ is ``mu @ theta_top.T + mv @ theta_bot.T``, where ``mu`` and ``mv``
    sum each pair's logit gradients into its ``u`` and ``v`` rows.  It is
    written into ``dz_out`` when given (a fresh array otherwise), and the
    second product is added ``_LOSS_BLOCK_ROWS`` rows at a time, so no whole
    ``(n, zdim)`` temporary is made.  ``dz_out`` may be ``z`` itself: the
    theta gradient is Z's last read, and it is computed before dZ is
    written.  ``_train_loop`` passes Z, so the loss holds no array of Z's
    size beside it.
    """
    m = len(u)
    n, zdim = z.shape
    z_top = z @ theta[:zdim]
    z_bot = z @ theta[zdim:]
    with np.errstate(over="ignore", invalid="ignore"):
        # one (3, m) array holds the shifted logits, then their exp, then dlogits
        dlogits = np.empty((3, m))
        for c in range(3):
            np.add(z_top[u, c], z_bot[v, c], out=dlogits[c])
        del z_top, z_bot
        dlogits -= np.maximum(np.maximum(dlogits[0], dlogits[1]), dlogits[2])
        true_shifted = np.choose(cls, dlogits)
        np.exp(dlogits, out=dlogits)
        norm = dlogits[0] + dlogits[1]
        norm += dlogits[2]
        dlogits /= norm
        # norm's last read is done: it becomes each pair's loss term
        np.log(norm, out=norm)
        norm -= true_shifted
        loss = float(norm.mean())
    del norm, true_shifted
    for c in range(3):
        np.subtract(dlogits[c], 1.0, out=dlogits[c], where=cls == c)
    dlogits /= m
    mu = np.stack([_scatter_rows(u, row, n) for row in dlogits], axis=1)
    mv = np.stack([_scatter_rows(v, row, n) for row in dlogits], axis=1)
    del dlogits
    g_theta = np.vstack([z.T @ mu, z.T @ mv])
    dz = np.matmul(mu, theta[:zdim].T, out=dz_out)
    theta_bot = theta[zdim:].T
    # a last block of one row joins the one before it: numpy multiplies a
    # single row by gemv, which can round otherwise than the whole gemm
    bounds = [*range(0, max(n - 1, 1), _LOSS_BLOCK_ROWS), n]
    for lo, hi in zip(bounds, bounds[1:]):
        dz[lo:hi] += mv[lo:hi] @ theta_bot
    return loss, g_theta, dz


# -- optimizer -------------------------------------------------------------


class _Optimizer:
    """Full-batch Adam (0.9, 0.999, 1e-8), updating in place."""

    def __init__(self, lr: float, params: list[np.ndarray]):
        self.lr = lr
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + eps)


# -- no-edge pair sampling --------------------------------------------------


_ABSENT_PAIR_ROUNDS = 50


def _lookup_prefix(need: int, k: int, reject: float) -> int:
    """How many of a round's ``k`` draws to look up first: enough for ``need``
    absent pairs at rejection rate ``reject``, with slack for chance."""
    return min(k, need + 2 * math.ceil(need * reject) + 64)


def _sample_absent_pairs(
    rng: np.random.Generator, graph: SignedGraph, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform non-adjacent (u < v) pairs of ``graph``, with replacement, rejection-sampled.

    Each round draws ``max(64, 2 * need)`` pairs and keeps the first ``need``
    that are absent.  The lookup runs on a prefix of the draws (see
    ``_lookup_prefix``) and on the rest only if that prefix falls short, so
    the result is that of looking up every draw.  Gives up after
    ``_ABSENT_PAIR_ROUNDS`` rounds and warns with the shortfall; that
    happens only on graphs that are nearly complete.
    """
    n = graph.num_nodes
    # chance that a uniform draw is a self pair or an edge
    reject = (n + 2 * graph.edge_count) / max(n * n, 1)
    got_u: list[np.ndarray] = []
    got_v: list[np.ndarray] = []
    need = count
    for _ in range(_ABSENT_PAIR_ROUNDS):
        if need <= 0:
            break
        k = max(64, 2 * need)
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        cut = _lookup_prefix(need, k, reject)
        valid = (lo[:cut] != hi[:cut]) & (graph.edge_index(lo[:cut], hi[:cut]) < 0)
        if cut < k and np.count_nonzero(valid) < need:
            rest = (lo[cut:] != hi[cut:]) & (graph.edge_index(lo[cut:], hi[cut:]) < 0)
            valid = np.concatenate([valid, rest])
        idx = np.flatnonzero(valid)[:need]
        if len(idx):
            got_u.append(lo[idx])
            got_v.append(hi[idx])
            need -= len(idx)
    if need > 0:
        log.warning(
            "no-edge sampling short by %d of %d pairs after %d rounds; "
            "the graph has few absent pairs",
            need, count, _ABSENT_PAIR_ROUNDS,
        )
    if not got_u:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(got_u), np.concatenate(got_v)


# -- training ---------------------------------------------------------------


def _train_loop(
    graph: SignedGraph,
    state: EncoderState,
    config: EncoderConfig,
    samples: Sequence[EdgeSample],
    size_for_epoch: Callable[[int], int],
) -> EncoderState:
    """Shared full-batch loop over prefixes of a fixed sample order.

    Epoch t trains on the first ``size_for_epoch(t)`` samples plus an equal
    number of freshly drawn no-edge pairs; plain training uses the full
    length every epoch.  Each array is released after its last read: the
    loss writes dZ over Z, the backward pass masks dZ's halves in place and
    pops the layer caches, and each epoch's no-edge draws go once they are
    joined to the batch.

    H0 is held once.  The layer-1 inputs ``[A+ H0 | H0]`` and
    ``[A- H0 | H0]`` both contain it, so while training
    ``state.input_features`` is the right half of the first of them and the
    array it held before is freed.  After the last forward pass, or when
    training raises, it becomes a C-contiguous array of its own again, with
    the same bits.
    """
    a_pos, a_neg = _adjacency_pair(graph)
    rng = _rng(config.seed, stream=1)
    params = state.parameters()
    opt = _Optimizer(config.learning_rate, params)
    d = state.embed_dim
    u_all, v_all, cls_all = _as_index_arrays(samples)
    d0 = state.input_features.shape[1]
    layer0 = _layer0_inputs(a_pos, a_neg, state.input_features)
    state.input_features = layer0[0][:, d0:]
    try:
        for epoch in range(config.epochs):
            k = min(size_for_epoch(epoch), len(u_all))
            u, v, cls = u_all[:k], v_all[:k], cls_all[:k]
            qu, qv = _sample_absent_pairs(rng, graph, k)
            if len(qu):
                u = np.concatenate([u, qu])
                v = np.concatenate([v, qv])
                cls = np.concatenate([cls, np.full(len(qu), CLASS_NONE, dtype=np.int64)])
            del qu, qv
            try:
                z, caches = _forward(a_pos, a_neg, state, keep_caches=True, layer0=layer0)
                loss, g_theta, dz = _loss_and_mlg_grads(z, state.mlg_weights, u, v, cls, dz_out=z)
            except FloatingPointError as exc:
                raise TrainingDivergedError(epoch) from exc
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            g_pos, g_neg = _backward(a_pos.T, a_neg.T, state, caches, dz[:, :d], dz[:, d:])
            del caches, z, dz  # so the next epoch's forward does not run beside them
            opt.step([*g_pos, *g_neg, g_theta])
            state.loss_history.append(loss)
        state.epochs_trained += config.epochs
        state.embeddings, _ = _forward(a_pos, a_neg, state, layer0=layer0)
    finally:
        state.input_features = state.input_features.copy()
    return state


def train_encoder(
    graph: SignedGraph, train: Sequence[EdgeSample], config: EncoderConfig
) -> EncoderState:
    """Jointly train encoder and pair classifier, full batch.

    Each epoch uses every training edge plus an equal number of freshly
    sampled non-adjacent pairs as no-edge examples.  The per-epoch loss is
    recorded in ``state.loss_history``.
    """
    if len(train) == 0:
        raise ValueError("training edge list is empty")
    state = init_state(graph, config)
    return _train_loop(graph, state, config, train, lambda _epoch: len(train))


# -- prediction --------------------------------------------------------------


def pair_class_scorer(state: EncoderState) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``pair_class_probabilities(state, u, v)`` as a function of ``(u, v)``.

    Z is projected through the classifier once, when the scorer is made, so
    each call costs one gather per pair.
    """
    if state.embeddings is None:
        raise ValueError("state has no embeddings; run forward or training first")
    logits = _pair_logit_fn(state.embeddings, state.mlg_weights)

    def probabilities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _softmax(logits(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)))

    return probabilities


def pair_class_probabilities(
    state: EncoderState, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """(m, 3) class probabilities for node pairs, columns (pos, neg, none)."""
    return pair_class_scorer(state)(u, v)


# -- checkpoint serialization -------------------------------------------------

# Flat binary layout (little endian):
#   magic "SIGAUG01" | u32 version | u32 layers | u64 nodes | u32 d0 | u32 d
#   | u64 epochs_trained | f64 init_weight_norm | u8 has_embeddings
#   then row-major float64 blocks: W_pos[0], W_neg[0], ..., W_pos[L-1],
#   W_neg[L-1], mlg (4d x 3), input features (n x d0), embeddings (n x 2d,
#   only if flagged).  loss_history is diagnostic and not serialized.
_HEADER = struct.Struct("<8sIIQIIQdB")


def save_checkpoint(state: EncoderState, path: str | Path) -> None:
    n, d0 = state.input_features.shape
    d = state.embed_dim
    has_z = state.embeddings is not None
    with Path(path).open("wb") as fh:
        fh.write(
            _HEADER.pack(
                _CHECKPOINT_MAGIC,
                _CHECKPOINT_VERSION,
                state.num_layers,
                n,
                d0,
                d,
                state.epochs_trained,
                state.init_weight_norm,
                1 if has_z else 0,
            )
        )
        for w_pos, w_neg in zip(state.pos_weights, state.neg_weights):
            fh.write(np.ascontiguousarray(w_pos).tobytes())
            fh.write(np.ascontiguousarray(w_neg).tobytes())
        fh.write(np.ascontiguousarray(state.mlg_weights).tobytes())
        fh.write(np.ascontiguousarray(state.input_features).tobytes())
        if has_z:
            fh.write(np.ascontiguousarray(state.embeddings).tobytes())


def load_checkpoint(path: str | Path) -> EncoderState:
    with Path(path).open("rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated checkpoint header")
        magic, version, layers, n, d0, d, epochs_trained, init_norm, has_z = _HEADER.unpack(header)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not an encoder checkpoint")
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")

        def block(rows: int, cols: int) -> np.ndarray:
            raw = fh.read(rows * cols * 8)
            if len(raw) != rows * cols * 8:
                raise ValueError(f"{path}: truncated checkpoint data")
            return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()

        pos_weights, neg_weights = [], []
        for layer in range(layers):
            fan_in = 2 * d0 if layer == 0 else 3 * d
            pos_weights.append(block(d, fan_in))
            neg_weights.append(block(d, fan_in))
        theta = block(4 * d, 3)
        h0 = block(n, d0)
        z = block(n, 2 * d) if has_z else None
    return EncoderState(
        pos_weights=pos_weights,
        neg_weights=neg_weights,
        mlg_weights=theta,
        input_features=h0,
        embeddings=z,
        init_weight_norm=init_norm,
        epochs_trained=epochs_trained,
    )
