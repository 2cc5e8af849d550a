"""The adaptive nearest-neighbor (ANN) objective J(M), its analytic gradient,
loss functions, and the NCA/PNCA objectives.

Per sample i the model aggregates the similar-side distances into
ds_i = b(alpha) and the dissimilar-side distances into dd_i = b(1) (soft
top-K averages), then penalizes ds_i exceeding dd_i:

    J(M) = sum_i loss((ds_i - dd_i) / gamma) + lam * sum_i sum_{j in S_i} d_M(x_i, x_j)

:class:`PairEvaluator` is the one place that turns (M, data, neighbor sets)
into soft sides, J and its gradient. The gradient is a weighted sum of pair
outer products (x_i-x_j)(x_i-x_j)^T with softmax weights w_ij. Scattered
into the upper triangle of one N x N matrix and mirrored in place into its
lower triangle to form W, that sum is the weighted-Laplacian form
X^T (diag(W 1) - W) X (the identity NCA implementations use), so the
per-call gradient work is O(P + N^2 d) instead of d^2 per pair. X is
centred first: the Laplacian annihilates constant columns, so the result is
the same, but without the centring a large common offset in the features
cancels catastrophically. The objective takes the metric and the
hyperparameters and returns an :class:`Evaluation` holding J, the soft
sides it came from and those hyperparameters, and the gradient takes that
evaluation, so J and dJ/dM at one metric share one pass over the pairs'
quadratic forms. The evaluator itself holds no hyperparameters, so one
serves every grid cell of a cross-validation fold.

The evaluator reads the neighbor sets as their CSR arrays and reduces every
sample's segment of distances with the per-segment soft aggregate of
:mod:`adaptnn.softagg`; its :func:`~adaptnn.softagg.soft_agg` is the
one-segment case. Since d_M is symmetric, it has one row per unordered
pair {i, j}, however many of the two sides list it as (i, j) or (j, i),
keyed min*N + max, and two inverse maps from the similar and the
dissimilar pairs to those rows. D_i is every other-class sample, so each
dissimilar pair is listed twice, and so is each similar pair under
"all_same_class": each quadratic form is computed once instead. The pass
runs over the rows in fixed-size blocks, so its product with M stays
cache-sized at any N. A row's difference x_min - x_max is stored once
while the rows hold at most _STREAM_ELEMENTS numbers; above that the
stored rows would be most of a fit's memory, so each pass gathers every
block's differences from the features into two reused buffers instead.
Both give the same forms bit for bit. The gradient sums each row's pair
weights through the same maps and scatters them once, to the row's
(min, max) entry of W, so a gradient holds one N x N array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, HyperParams, NeighborSets
from .metric import _as_array, pairwise_sq
from .softagg import _segment_soft_agg


# ---------------------------------------------------------------------------
# Loss functions (HyperParams.loss may be any object with value and derivative)


@dataclass(frozen=True)
class HingeLoss:
    """l(x) = max(0, x + margin). Subgradient at the kink is 0, so an exactly
    satisfied constraint exerts no descent pressure."""

    margin: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError("hinge margin must be finite and >= 0, got %r"
                             % (self.margin,))

    def value(self, x):
        return np.maximum(np.asarray(x, dtype=float) + self.margin, 0.0)

    def derivative(self, x):
        return (np.asarray(x, dtype=float) + self.margin > 0).astype(float)


@dataclass(frozen=True)
class IdentityLoss:
    """l(x) = x."""

    def value(self, x):
        return np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SoftplusLoss:
    """l(x) = (1/s) * ln(1 + exp(s*(x + margin))), a smooth hinge."""

    margin: float = 0.0
    sharpness: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.margin):
            raise ValueError("softplus margin must be finite, got %r" % (self.margin,))
        if not (math.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError("softplus sharpness must be finite and > 0, got %r"
                             % (self.sharpness,))

    def value(self, x):
        z = self.sharpness * (np.asarray(x, dtype=float) + self.margin)
        return np.logaddexp(0.0, z) / self.sharpness

    def derivative(self, x):
        z = self.sharpness * (np.asarray(x, dtype=float) + self.margin)
        return _sigmoid(z)


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Vectorized evaluation over the neighbor pairs, one row per unordered pair


# unique pair rows per quadratic-form block: the block's (rows x d) product
# with M stays cache-sized instead of growing with the pair count
_BLOCK_ROWS = 8192

# Above this many difference-row elements (rows x d, 32 MiB of float64) the
# rows are not stored: each pass gathers them from the features in blocks of
# _STREAM_ROWS rows into two reused buffers. Below it storing them is
# cheaper: a pass over stored rows does no gathering, and streaming would
# double a pass at a CV fold's size (N = 119, d = 13).
_STREAM_ELEMENTS = 1 << 22
_STREAM_ROWS = 1024


# rows per block of the gradient's in-place mirror w + w^T: at N = 1500 a
# block's transposed column block stays in L2, and a CV fold's N x N matrix
# is one block, which costs no more than w + w^T
_MIRROR_ROWS = 256


def _blocks(rows, step=_BLOCK_ROWS):
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


@dataclass(frozen=True)
class Evaluation:
    """J at one metric under the hyperparameters ``hp`` it was evaluated
    with, and the terms behind it: the soft sides ds = b(alpha) and
    dd = b(1), u = (ds - dd) / gamma, and each side's softmax terms
    (e, total), so a pair's weight within its segment is e / total. The
    gradient reads hp from here, so an evaluation made under other
    hyperparameters later does not change it."""

    j: float
    ds: np.ndarray
    dd: np.ndarray
    u: np.ndarray
    sim: tuple
    dis: tuple
    hp: HyperParams


def _pair_keys(counts, nbr):
    """min(i, j)*N + max(i, j) of each listed pair (i, j), with i the owner
    from the CSR counts: the owners are overwritten block by block, so the
    keys are the one pair-sized array."""
    n = counts.size
    key = np.arange(n).repeat(counts)
    for b in _blocks(key.size):
        i, j = key[b], nbr[b]
        np.minimum(i * n + j, j * n + i, out=i)
    return key


def _mirror_upper(w):
    """w + w^T in place, for a square w that is zero below its diagonal.

    Each row block's lower entries take the transposed upper column block,
    and each diagonal block adds its own transpose. The lower entries are
    +0.0, so this equals w + w^T bit for bit unless an upper entry is -0.0.
    """
    for lo in range(0, w.shape[0], _MIRROR_ROWS):
        hi = lo + _MIRROR_ROWS
        block = w[lo:hi, lo:hi]
        block += block.T.copy()
        if lo:
            w[lo:hi, :lo] = w[:lo, lo:hi].T


def _pair_weights(side, xi, counts):
    """xi_i times each pair's softmax weight e / total, in one pair-sized buffer."""
    e, total = side
    w = total.repeat(counts)
    np.divide(e, w, out=w)
    np.multiply(w, xi.repeat(counts), out=w)
    return w


class PairEvaluator:
    """The library's single evaluator of soft sides, J(M) and dJ/dM.

    An instance is the pair structure of one (dataset, neighbor sets) pair
    and holds no hyperparameters: :meth:`objective` takes them with the
    metric and records them in its :class:`Evaluation`. The row keys
    min*N + max (one per unordered pair), the maps ``inv_s``/``inv_d`` from
    each similar and dissimilar pair to its row and the centred features
    are built once up front; each pair's owner is derived from the CSR
    pointers only to key the rows. So are the difference rows ``diff``
    (x_min - x_max) while rows x d is at most ``_STREAM_ELEMENTS``; above it
    ``diff`` is None and every pass gathers each block's rows from the
    features ``x``. None of them depends on the metric or the
    hyperparameters and no call changes them, so one instance serves every
    fit on its data and neighbor sets: each fold of a cross-validated grid
    builds one for all its cells. :meth:`objective` also accepts a raw
    square array (finite-difference checks step off the PSD cone).

    The quadratic forms d_M of the pairs are the only per-pair d^2 work and
    always come from the difference rows, which keeps J free of
    cancellation. They are computed once per row, block by block, and read
    out per pair through the inverse maps; negating a row is exact, so they
    equal the per-pair forms bit for bit. Gathered rows are the stored rows
    bit for bit, and their blocks keep the stored blocks' row alignment and
    last block, so both paths give the same forms. The gradient is formed
    as the centred weighted Laplacian Xc^T (diag(W 1) - W) Xc, where W is the
    symmetric N x N matrix of pair weights. Each row's weights are summed
    and written to its (min, max) entry of one zeroed N x N buffer, whose
    upper triangle is then mirrored into the lower one in place. The lower
    entries are +0.0 and a ``bincount`` sum is never -0.0, so that equals
    w + w^T bit for bit. When every unordered pair is listed on one
    side only and at most once each way, as in every set
    :func:`~adaptnn.data.build_neighbor_sets` makes, W equals the
    per-listed-pair scatter bit for bit.
    """

    def __init__(self, data: Dataset, nbrs: NeighborSets):
        if nbrs.n_samples != data.n_samples:
            raise ValueError("neighbor sets cover %d samples, dataset has %d"
                             % (nbrs.n_samples, data.n_samples))
        self.nbrs = nbrs
        x = data.features
        n = data.n_samples
        self.sim_ptr, self.dis_ptr = nbrs.sim_ptr, nbrs.dis_ptr
        self.sim_counts = nbrs.sim_ptr[1:] - nbrs.sim_ptr[:-1]
        self.dis_counts = nbrs.dis_ptr[1:] - nbrs.dis_ptr[:-1]
        # one row per unordered pair, keyed min*n + max; a pair listed as both
        # (i, j) and (j, i) shares its row
        key_s = _pair_keys(self.sim_counts, nbrs.sim_nbr)
        key_d = _pair_keys(self.dis_counts, nbrs.dis_nbr)
        seen = np.zeros(n * n, dtype=bool)
        seen[key_s] = True
        seen[key_d] = True
        self.keys = seen.nonzero()[0]
        del seen
        row = np.empty(n * n, dtype=np.intp)
        row[self.keys] = np.arange(self.keys.size)
        self.inv_s = row[key_s]
        del key_s
        self.inv_d = row[key_d]
        del row, key_d  # before the rows are allocated
        self.x = x
        self.diff = self._stored = None
        if self.keys.size * x.shape[1] <= _STREAM_ELEMENTS:
            lo, hi = np.divmod(self.keys, n)
            self.diff = np.empty((self.keys.size, x.shape[1]))
            self._stored = [(b, self.diff[b]) for b in _blocks(self.keys.size)]
            for b, rows in self._stored:
                np.subtract(x[lo[b]], x[hi[b]], out=rows)
        self.xc = x - x.sum(axis=0) / n  # x.mean(axis=0), bit for bit

    def _row_blocks(self):
        """Each block's slice of the rows and its difference rows: the
        (slice, view of ``diff``) pairs listed once in __init__ when the
        rows are stored, else rows gathered from the features into two
        buffers that every block reuses."""
        return self._streamed() if self._stored is None else self._stored

    def _streamed(self):
        n, d = self.x.shape
        rows = self.keys.size
        # the stored blocks cut into _STREAM_ROWS-row pieces (_BLOCK_ROWS is a
        # multiple of it), but the last one whole: BLAS may round a ragged
        # product's tail rows differently from the same rows inside a larger
        # product, so that block keeps the stored shape
        last = _blocks(rows)[-1]
        size = max(_STREAM_ROWS, rows - last.start)
        x_lo, x_hi = np.empty((size, d)), np.empty((size, d))
        for b in _blocks(last.start, _STREAM_ROWS) + [last]:
            # lo and hi are in range by construction; mode "clip" gathers
            # straight into the buffer, where "raise" gathers into a copy
            lo, hi = np.divmod(self.keys[b], n)
            diff = np.take(self.x, lo, axis=0, out=x_lo[:lo.size], mode="clip")
            np.subtract(diff, np.take(self.x, hi, axis=0, out=x_hi[:hi.size],
                                      mode="clip"), out=diff)
            yield b, diff

    def _quadforms(self, m):
        mm = _as_array(m)
        q = np.empty(self.keys.size)
        for b, rows in self._row_blocks():
            np.einsum("pi,pi->p", rows @ mm, rows, out=q[b])
        np.maximum(q, 0.0, out=q)
        return q.take(self.inv_s), q.take(self.inv_d)

    def objective(self, m, hp: HyperParams) -> Evaluation:
        """J(M) under hp with the soft sides it came from; ``.j`` is the
        value, and :meth:`gradient` takes the whole evaluation, hp
        included."""
        q_s, q_d = self._quadforms(m)
        ds, e_s, tot_s = _segment_soft_agg(q_s, hp.alpha, self.sim_ptr, self.sim_counts)
        dd, e_d, tot_d = _segment_soft_agg(q_d, 1.0, self.dis_ptr, self.dis_counts)
        u = (ds - dd) / hp.gamma
        j = float(hp.loss.value(u).sum()) + hp.lam * float(q_s.sum())
        return Evaluation(j, ds, dd, u, (e_s, tot_s), (e_d, tot_d), hp)

    def gradient(self, at: Evaluation) -> np.ndarray:
        """dJ/dM at the metric and under the hyperparameters that
        :meth:`objective` evaluated as ``at``."""
        hp = at.hp
        xi = hp.loss.derivative(at.u) / hp.gamma
        rows = self.keys.size
        # each unordered pair's weight, summed over its listings; one side's
        # pair weights are freed before the other side's exist
        r_d = np.bincount(self.inv_d, _pair_weights(at.dis, xi, self.dis_counts), rows)
        w_s = _pair_weights(at.sim, xi, self.sim_counts)
        w_s += hp.lam
        r = np.bincount(self.inv_s, w_s, rows)
        del w_s
        r -= r_d
        del r_d
        n = self.xc.shape[0]
        w = np.zeros(n * n)
        w[self.keys] = r
        del r
        w = w.reshape(n, n)
        _mirror_upper(w)
        grad = (self.xc.T * w.sum(axis=1)) @ self.xc - self.xc.T @ (w @ self.xc)
        return (grad + grad.T) / 2.0


def ann_objective(m, data: Dataset, nbrs: NeighborSets, hp: HyperParams) -> float:
    """J(M) = sum_i loss((ds_i - dd_i)/gamma) + lam * sum of similar-side
    distances, through a one-off :class:`PairEvaluator`."""
    return PairEvaluator(data, nbrs).objective(m, hp).j


def ann_gradient(m, data: Dataset, nbrs: NeighborSets, hp: HyperParams) -> np.ndarray:
    """Analytic gradient dJ/dM, an exactly symmetric d x d array.

    Each pair (i, j in S_i) contributes (xi_i r^s_ij + lam) X_ij and each
    (i, l in D_i) contributes -xi_i r^d_il X_il, with X_ab the outer product
    of the difference vector and xi_i = loss'((ds_i - dd_i)/gamma) / gamma.
    """
    ev = PairEvaluator(data, nbrs)
    return ev.gradient(ev.objective(m, hp))


# ---------------------------------------------------------------------------
# NCA and PNCA objectives (reporting and equivalence checks; not trained)


def nca_objective(m, data: Dataset) -> float:
    """Expected leave-one-out score sum_i sum_{j ~ i} p_ij with softmax
    neighbor probabilities p_ij = exp(-d_ij) / sum_{k != i} exp(-d_ik), for
    a MetricMatrix m (it builds a distance table)."""
    full = pairwise_sq(m, data.features)
    z = -full
    np.fill_diagonal(z, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    same = data.labels[:, None] == data.labels[None, :]
    np.fill_diagonal(same, False)
    return float(p[same].sum())


def pnca_objective(m, data: Dataset, nbrs: NeighborSets, alpha: float) -> float:
    """sum_i A_i / (A_i + B_i) with A_i = (sum_{j in S_i} e^{-alpha d})^(1/alpha)
    and B_i = sum_{l in D_i} e^{-d}, evaluated in log space.

    With alpha = 1 and S_i/D_i the full same/other-class sets this equals
    :func:`nca_objective`. Each summand lies in (0, 1).
    """
    hp = HyperParams(alpha=alpha)
    at = PairEvaluator(data, nbrs).objective(m, hp)
    # ln A_i = ln|S_i|/alpha - ds_i and ln B_i = ln|D_i| - dd_i
    log_a = np.log(np.diff(nbrs.sim_ptr)) / alpha - at.ds
    log_b = np.log(np.diff(nbrs.dis_ptr)) - at.dd
    return float(_sigmoid(log_a - log_b).sum())
