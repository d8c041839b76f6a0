"""Clonal selection machinery: affinity, affinity-proportional cloning,
inverse-affinity mutation, uniform crossover, threshold filtering, and
bounded per-class antibody memory pools. Also provides the standalone
population-based clonal selection procedure used as a reference
pattern-recognition demo.

Affinity maps cosine similarity into [0, 1] via (1 + cos) / 2 so that the
clone-count and mutation-rate formulas receive a bounded positive quantity.
Every affinity in the package is an entry of a table ``_affinity_table``
builds: ``affinity_matrix``, ``pool_affinities``, the training hook,
``generate_clones`` and the classifier each make one call per table, and
``affinity_naive`` is its per-pair test oracle. A table scores ranges of
its query rows, each against one reference. A BLAS product's bits depend
on its shape, so each range is one product of the shape a per-original
(1, d), per-parent (n_i, d) or whole-batch call has, written into its rows
of the table; the elementwise rest of the affinity then runs once over the
whole table. The products need each row's squared norm, and reference rows
that are scored again and again are prepared once, read-only, by
``_reference``: a pool's on first use, the classifier's stack of pools
when it is built. Only the query side is prepared per table.

The training hook scores a batch in two tables: its originals against
their class pools, then every clone proposal against its parent's pool.
It returns the accepted clones as one :class:`Clones` of arrays, features
(k, d) and parents (k,), which :func:`clonalnet.nn.batch_gradients` takes
as they are, and it keeps to numpy's C entry points, as the network's
training step does.

A pool stores its members as two read-only arrays, features (m, d) and
scores (m,). ``Antibody`` and ``MemoryPool.members`` are a read-only
compatibility view of them for callers that build pools from lists of
antibodies; nothing in this package reads that view.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, DimensionError, UndefinedAffinityError,
                     check_array, check_count, check_indices, check_real,
                     read_text)

# squared norms outside this range are rescaled before use: any two inside
# it, or in the [1, d] of a rescaled row, multiply to a normal float
_SQ_LOW, _SQ_HIGH = 2.0 ** -510, 2.0 ** 510

# chance that a training clone is crossed with a same-class batch feature
CROSSOVER_PROB = 0.2


@dataclass(frozen=True)
class Antibody:
    """One pool member, as :attr:`MemoryPool.members` shows it."""

    feature: np.ndarray
    class_label: int
    affinity_score: float


@dataclass(frozen=True, eq=False)
class MemoryPool:
    """Bounded per-class antibody set, kept sorted by descending score.

    A pool is two read-only arrays: the member features ``matrix`` (m, d)
    and their ``scores`` (m,), best first; ``matrix`` is (0, 0) for an
    empty pool. ``MemoryPool(label, capacity, matrix=..., scores=...)``
    stores read-only copies of the arrays it is given, and
    :func:`update_memory` returns a new pool with rows merged in. More
    members than ``capacity``, scores not best first, a non-finite row or
    score, or a ``class_label`` that is not an integer >= 0 raise
    ConfigurationError. A pool that :func:`update_memory`
    builds skips those checks, which its ranking and its input checks
    already establish, and is the pool the constructor would build from
    the same arrays. Pools compare and hash by identity.

    Compatibility view: a third positional argument of :class:`Antibody`
    objects is converted to the arrays once, and ``members`` shows the
    arrays as a tuple of Antibody objects over read-only rows.
    """

    class_label: int
    capacity: int
    antibodies: InitVar[Sequence[Antibody]] = ()
    matrix: np.ndarray = field(default=(), kw_only=True)
    scores: np.ndarray = field(default=(), kw_only=True)

    def __post_init__(self, antibodies):
        check_count(self.class_label, "class_label", 0)
        check_count(self.capacity, "capacity", 0)
        matrix, scores = self.matrix, self.scores
        if len(antibodies):
            matrix = [ab.feature for ab in antibodies]
            scores = [ab.affinity_score for ab in antibodies]
        where = f"pool of class {self.class_label}: "
        # copies of the checked arrays, which the caller may still hold
        matrix = np.array(check_array(matrix, f"{where}matrix", (1, 2)))
        if not np.isfinite(matrix).all():
            raise ConfigurationError(f"{where}a member row is not finite")
        scores = np.array(check_array(scores, f"{where}scores", 1))
        matrix = _pool_rows(matrix)
        if matrix.ndim != 2 or len(scores) != len(matrix):
            raise DimensionError(f"{where}matrix {matrix.shape} does not fit "
                                 f"scores {scores.shape}")
        matrix.flags.writeable = scores.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "scores", scores)
        if len(scores) > self.capacity:
            raise ConfigurationError(f"{where}{len(scores)} members exceed "
                                     f"capacity {self.capacity}")
        # written so that a NaN score fails it
        unordered = np.flatnonzero(~(scores[:-1] >= scores[1:]))
        if unordered.size:
            i = unordered[0]
            before, after = scores[i:i + 2].tolist()
            raise ConfigurationError(
                f"{where}member {i + 2} scores {after!r} after {before!r}; "
                f"scores must not increase")
        # a lone NaN, or an infinite score, is in order
        if not np.isfinite(scores).all():
            raise ConfigurationError(f"{where}a member score is not finite")

    @classmethod
    def _ranked(cls, class_label: int, capacity: int, matrix: np.ndarray,
                scores: np.ndarray) -> "MemoryPool":
        """The pool of :func:`update_memory`'s ranked arrays, which nothing
        else holds: made read-only and kept as they are, without the
        constructor's checks."""
        matrix = _pool_rows(matrix)
        matrix.flags.writeable = scores.flags.writeable = False
        pool = object.__new__(cls)
        # the fields of a frozen dataclass, set as its own __init__ would
        pool.__dict__.update(class_label=class_label, capacity=capacity,
                             matrix=matrix, scores=scores)
        return pool

    def __len__(self) -> int:
        return len(self.scores)

    @cached_property
    def rescaled(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """``matrix`` as every affinity against this pool reads it:
        :func:`_reference` of it, computed on first use and then shared."""
        return _reference(self.matrix)

    @cached_property
    def members(self) -> tuple[Antibody, ...]:
        """Read-only compatibility view: one Antibody per row, best first."""
        return tuple(Antibody(row, self.class_label, score)
                     for row, score in zip(self.matrix, self.scores.tolist()))


def _pool_rows(matrix: np.ndarray) -> np.ndarray:
    """A pool's member rows: ``matrix``, or (0, 0) when it has none."""
    return matrix if len(matrix) else matrix.reshape(0, 0)


@dataclass(frozen=True)
class CloneConfig:
    eta: float = 5.0              # cloning constant
    alpha: float = 0.1            # mutation constant
    tau: float = 0.6              # acceptance threshold
    sigma: float = 0.1            # base mutation scale
    memory_capacity: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        check_real(self.eta, "eta", 0, math.inf)
        if check_real(self.alpha, "alpha", 0, math.inf) == 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha!r}")
        check_real(self.tau, "tau", 0, 1)
        check_real(self.sigma, "sigma", 0, math.inf)
        check_count(self.memory_capacity, "memory_capacity")
        check_count(self.rng_seed, "rng_seed", 0)


# ---------------------------------------------------------------------------
# scalar operators
# ---------------------------------------------------------------------------

def affinity_naive(v1: np.ndarray, v2: np.ndarray) -> float:
    """(1 + cosine(v1, v2)) / 2, in [0, 1], one pair at a time: the test
    oracle for :func:`affinity_matrix`.

    Each nonzero vector is first divided by its largest |component|, so no
    magnitude over- or underflows. A single zero vector counts as
    orthogonal (0.5); two zero vectors, or a non-finite component, have no
    defined direction and raise.
    """
    a = check_array(v1, "v1", 1)
    b = check_array(v2, "v2", 1)
    if a.shape != b.shape:
        raise DimensionError(
            f"affinity needs equal-width vectors, got {a.shape} and {b.shape}"
        )
    a_max = float(np.abs(a).max(initial=0.0))
    b_max = float(np.abs(b).max(initial=0.0))
    if not math.isfinite(a_max + b_max) or a_max == b_max == 0.0:
        raise UndefinedAffinityError(
            "affinity of two zero vectors or a non-finite one is undefined")
    if a_max == 0.0 or b_max == 0.0:
        return 0.5
    a, b = a / a_max, b / b_max
    # sqrt of the product (not product of sqrts) keeps cos(v, v) exactly 1
    cos = float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))
    return (1.0 + min(1.0, max(-1.0, cos))) / 2.0


def clone_count(a: float, eta: float, tau: float) -> int:
    """round(eta * a), floored at 0 below the threshold, at least 1 above it.

    eta == 0 disables cloning entirely (degenerate expansion).
    """
    if a < tau or eta == 0.0:
        return 0
    return max(1, int(math.floor(eta * a + 0.5)))


def mutation_rate(a: float, alpha: float) -> float:
    """min(alpha / a, 1); saturates at 1 as a -> 0."""
    return 1.0 if a <= 0.0 else min(alpha / a, 1.0)


def mutate(v: np.ndarray, rate: float | np.ndarray, sigma: float,
           rng: np.random.Generator) -> np.ndarray:
    """Independent zero-mean Gaussian perturbation, std = rate * sigma; an
    (n, 1) column of rates draws what n one-row calls would."""
    v = check_array(v, "v")
    return v + rng.normal(scale=rate * sigma, size=v.shape)


def crossover(v1: np.ndarray, v2: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """Uniform crossover: each component from v1 or v2 with probability 1/2."""
    a = check_array(v1, "v1")
    b = check_array(v2, "v2")
    if a.shape != b.shape:
        raise DimensionError(
            f"crossover needs equal widths, got {a.shape} and {b.shape}"
        )
    take_first = rng.random(a.shape) < 0.5
    return np.where(take_first, a, b)


# ---------------------------------------------------------------------------
# memory pools
# ---------------------------------------------------------------------------

def affinity_matrix(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Affinity of every query row against every reference row, shape (n, m).

    One path serves every pair: a row whose squared norm lies outside
    [2^-510, 2^510] is first divided by its largest |component| (cosine is
    scale invariant), so any two squared norms multiply to a normal float.
    Rows inside that range, every feature the network emits among them, are
    used as given. A single zero row counts as orthogonal (0.5); two zero
    rows, or a row with a non-finite component, raise
    UndefinedAffinityError. :func:`affinity_naive` is the per-pair oracle.
    """
    # a vector or a scalar is one row
    q = np.atleast_2d(check_array(queries, "queries", (0, 2)))
    return _affinity_table(q, [(0, len(q), None, _rescaled(
        np.atleast_2d(check_array(references, "references", (0, 2)))))])


def _rescaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """``x`` with its extreme rows divided by their largest |component|,
    the rows' squared norms, and whether some row is zero. A zero row gets
    squared norm 1, so that its dot products of 0 give cosine 0."""
    sq = np.einsum("ij,ij->i", x, x)
    # written so that a NaN norm fails it
    if not sq.size or (np.minimum.reduce(sq) >= _SQ_LOW
                       and np.maximum.reduce(sq) <= _SQ_HIGH):
        return x, sq, False
    extreme = np.flatnonzero(~((sq >= _SQ_LOW) & (sq <= _SQ_HIGH)))
    rows = x[extreme]
    scale = np.abs(rows).max(axis=1, initial=0.0)
    if not np.isfinite(scale).all():
        raise UndefinedAffinityError(
            "affinity of a non-finite vector is undefined")
    zero = scale == 0.0
    rows /= np.where(zero, 1.0, scale)[:, None]
    x = x.copy()
    x[extreme] = rows
    sq[extreme] = np.where(zero, 1.0, np.einsum("ij,ij->i", rows, rows))
    return x, sq, bool(zero.any())


def _reference(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """:func:`_rescaled` of reference rows that are kept and scored again
    and again, made read-only so that every table shares it."""
    rows, sq, zero = _rescaled(matrix)
    rows.flags.writeable = sq.flags.writeable = False
    return rows, sq, zero


def _affinity_table(queries: np.ndarray, blocks) -> np.ndarray:
    """The affinities of the query rows ``queries`` (n, d), in one table.

    Each (start, stop, label, reference) of ``blocks`` scores rows
    start:stop against ``reference``, the :func:`_rescaled` reference rows
    of class ``label``; the blocks cover the rows of ``queries``, so one
    block spans them all. A BLAS product's bits depend on its shape, so a
    block is one product of the shape its rows and its reference give and
    is written into its rows of the table. Entries past a reference's rows
    are -inf and finish to affinity 0. A reference of another width raises
    DimensionError naming its class, and a zero query row in a block whose
    reference holds a zero row UndefinedAffinityError.
    """
    q, query_sq, q_zero = _rescaled(queries)
    width = max(len(reference[0]) for *_, reference in blocks)
    dot = np.empty((len(q), width))
    sq = np.empty((len(q), width))
    if len(blocks) > 1:
        # the blocks cover the rows, but a reference may be narrower than
        # the table
        dot.fill(-np.inf)
        sq.fill(1.0)
    for start, stop, label, (r, r_sq, r_zero) in blocks:
        if r.shape[1] != q.shape[1]:
            raise DimensionError(
                f"rows of width {q.shape[1]} do not fit the width-"
                f"{r.shape[1]} " + ("reference rows" if label is None
                                   else f"pool of class {label}"))
        if q_zero and r_zero and not np.logical_and.reduce(
                np.logical_or.reduce(q[start:stop], axis=1)):
            raise UndefinedAffinityError(
                "affinity of two zero vectors is undefined")
        np.matmul(q[start:stop], r.T, out=dot[start:stop, :len(r)])
        sq[start:stop, :len(r)] = r_sq
    # both squared norms lie in [2^-510, 2^510] or [1, d], so the cosines
    # are finite and clipping them with minimum and maximum gives the bits
    # np.clip would
    sq *= query_sq[:, None]
    dot /= np.sqrt(sq, out=sq)
    np.minimum(dot, 1.0, out=dot)
    np.maximum(dot, -1.0, out=dot)
    dot += 1.0
    dot /= 2.0
    return dot


def pool_affinities(features: np.ndarray, pool: MemoryPool) -> np.ndarray:
    """Affinity of each row of ``features`` against every pool member,
    shape (n, len(pool)): :func:`affinity_matrix` with the pool side read
    from :attr:`MemoryPool.rescaled`."""
    if not len(pool):
        raise ConfigurationError(
            f"memory pool for class {pool.class_label} is empty"
        )
    q = np.atleast_2d(check_array(features, "features", (0, 2)))
    return _affinity_table(q, [(0, len(q), pool.class_label, pool.rescaled)])


def update_memory(pool: MemoryPool, features, scores) -> MemoryPool:
    """Top-capacity merge of the members and the candidate rows
    ``features`` (k, d), scored by ``scores`` (k,).

    Elitist: on score ties a member outranks any candidate, and earlier
    candidates outrank later ones, so a member is only ever evicted by a
    strictly better candidate. The kept rows are gathered from the members
    and the candidates with one index, a copy the new pool keeps. The
    training pools, new-class seeding and ``clonalg_run``'s elite memory
    all rank through this one policy. A non-finite candidate row or score
    raises ConfigurationError. The members were checked when their pool
    was built, and the stable ranking orders the scores best first, so
    the new pool is built without the constructor's checks.
    """
    features = check_array(features, "features", 2)
    scores = check_array(scores, "scores", 1)
    if (len(scores) != len(features)
            or len(pool) and features.shape[1] != pool.matrix.shape[1]):
        raise DimensionError(
            f"candidate rows {features.shape} with scores {scores.shape} do "
            f"not fit a pool of shape {pool.matrix.shape}")
    if not (np.logical_and.reduce(np.isfinite(features), axis=None)
            and np.logical_and.reduce(np.isfinite(scores))):
        raise ConfigurationError(f"pool of class {pool.class_label}: "
                                 f"a candidate row or score is not finite")
    merged = np.concatenate([pool.scores, scores])
    ranked = (-merged).argsort(kind="stable")[:pool.capacity]
    rows = np.concatenate([pool.matrix, features]) if len(pool) else features
    return MemoryPool._ranked(pool.class_label, pool.capacity, rows[ranked],
                              merged[ranked])


# ---------------------------------------------------------------------------
# clone generation over a training batch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clones:
    """A batch's accepted clones in batch order: their features (k, d),
    their parents' batch indices (k,) and their memory scores (k,)."""

    features: np.ndarray
    parents: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.parents)


def generate_clones(features: np.ndarray, scores: np.ndarray, labels,
                    pools: dict[int, MemoryPool], config: CloneConfig,
                    rng: np.random.Generator) -> Clones:
    """Clone every row of the batch ``features`` (n, d), whose best match
    in its class pool ``pools[labels[i]]`` has affinity ``scores[i]``.

    The originals are walked in batch order. An original's score sets its
    clone count and mutation rate; with probability ``CROSSOVER_PROB`` a
    clone is first crossed with a random same-class batch feature. The
    proposals are scored in one table, a block per parent against its
    class pool, and the clones whose best match there clears the
    acceptance threshold are returned; that affinity is the clone's
    memory score. Labels that are not one integer per row, or a label
    without a pool, raise before any draw.
    """
    features = check_array(features, "features", 2)
    scores = check_array(scores, "scores", 1)
    labels = check_indices(labels, "label", ndim=1).tolist()
    if not len(features) == len(scores) == len(labels):
        raise DimensionError(f"{len(features)} features, {len(scores)} "
                             f"scores and {len(labels)} labels")
    affinities = scores.tolist()
    counts = [clone_count(a, config.eta, config.tau) for a in affinities]
    peers: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        peers.setdefault(label, []).append(i)
    for label in peers:
        if label not in pools:
            raise ConfigurationError(f"label {label} has no pool")
    proposals = np.empty((sum(counts), features.shape[1]))
    blocks = []
    k = 0
    for i, (n_clones, a, label) in enumerate(zip(counts, affinities, labels)):
        if n_clones == 0:
            continue
        rate = mutation_rate(a, config.alpha)
        blocks.append((k, k + n_clones, label, pools[label].rescaled))
        for _ in range(n_clones):
            base = features[i]
            if rng.random() < CROSSOVER_PROB:
                group = peers[label]
                partner = features[group[int(rng.integers(len(group)))]]
                base = crossover(base, partner, rng)
            proposals[k] = mutate(base, rate, config.sigma, rng)
            k += 1
    parents = np.arange(len(counts)).repeat(counts)
    if not blocks:
        return Clones(proposals, parents, np.empty(0))
    best = np.maximum.reduce(_affinity_table(proposals, blocks), axis=1)
    keep = best >= config.tau
    return Clones(proposals[keep], parents[keep], best[keep])


class ClonalExpander:
    """Stateful training hook: bootstraps per-class pools from the first
    batch of each class, expands every batch into clones, and folds both
    originals and accepted clones back into the pools."""

    def __init__(self, config: CloneConfig):
        self.config = config
        self.pools: dict[int, MemoryPool] = {}
        self.rng = np.random.default_rng(config.rng_seed)

    def _bootstrap(self, pools: dict[int, MemoryPool], features: np.ndarray,
                   groups: dict[int, np.ndarray]) -> None:
        """Seed the empty pools of ``groups``' labels, in label order."""
        for label, members in groups.items():
            if label in pools and len(pools[label]):
                continue
            seeds = features[members]
            centroid = seeds.mean(axis=0)
            empty = MemoryPool(class_label=label,
                               capacity=self.config.memory_capacity)
            pools[label] = update_memory(
                empty, seeds, affinity_matrix(seeds, centroid)[:, 0])

    def __call__(self, features, labels) -> Clones:
        """Return the batch's accepted :class:`Clones` in batch order,
        their features and parents as the arrays that
        :func:`clonalnet.nn.batch_gradients` takes; a clone's class is its
        parent's.

        Each original is scored once against its class pool as it stood
        before the call, in one table with a row per original; that score
        sets its clone count and is its memory score. One
        :func:`generate_clones` call expands the batch. A pool takes its
        accepted clones, then its originals, each in batch order. A batch
        whose features are not (n, d) rows, whose labels are not one
        integer per row, or whose widths or values do not fit, raises
        before any pool changes or any draw.
        """
        x = check_array(features, "features", 2)
        label_of = check_indices(labels, "label", ndim=1)
        if len(x) != len(label_of):
            raise DimensionError(
                f"{len(x)} features but {len(label_of)} labels")
        if not len(label_of):
            return Clones(np.empty((0, x.shape[1])), np.empty(0, np.intp),
                          np.empty(0))
        labels = label_of.tolist()
        groups = {l: (label_of == l).nonzero()[0]
                  for l in sorted(set(labels))}
        # bootstrapped into a copy, so that an error below changes no pool
        pools = dict(self.pools)
        self._bootstrap(pools, x, groups)
        # a block per original, so that a feature's score (and with it the
        # clone draws) does not depend on the rest of its batch
        scores = np.maximum.reduce(_affinity_table(x, [
            (i, i + 1, l, pools[l].rescaled) for i, l in enumerate(labels)]),
            axis=1)
        clones = generate_clones(x, scores, labels, pools, self.config,
                                 self.rng)
        clone_labels = label_of[clones.parents]
        for label, members in groups.items():
            mine = clone_labels == label
            pools[label] = update_memory(
                pools[label],
                np.concatenate([clones.features[mine], x[members]]),
                np.concatenate([clones.scores[mine], scores[members]]))
        self.pools.update(pools)
        return clones


# ---------------------------------------------------------------------------
# pool serialization (versioned text format)
# ---------------------------------------------------------------------------

POOL_FORMAT_HEADER = "clonalnet-pools v1"


def check_pools(pools) -> None:
    """ConfigurationError unless ``pools`` maps class ids (integers >= 0,
    not bools) to their pools, and DimensionError unless their non-empty
    pools share one width of at least 1."""
    if not isinstance(pools, dict):
        raise ConfigurationError(
            f"pools must be a dict, got {type(pools).__name__}")
    for label, pool in pools.items():
        check_count(label, "pools key", 0)
        if not isinstance(pool, MemoryPool) or label != pool.class_label:
            raise ConfigurationError(
                f"pools[{label!r}] is not the MemoryPool of class {label!r}")
    filled = [pool for pool in pools.values() if len(pool)]
    if filled and not filled[0].matrix.shape[1]:
        raise DimensionError(
            f"pools must share one width of at least 1: class "
            f"{filled[0].class_label} has width 0")
    for pool in filled[1:]:
        if pool.matrix.shape[1] != filled[0].matrix.shape[1]:
            raise DimensionError(
                f"pools must share one width: class {filled[0].class_label} "
                f"has width {filled[0].matrix.shape[1]}, class "
                f"{pool.class_label} width {pool.matrix.shape[1]}")


def save_pools(pools: dict[int, MemoryPool], path) -> None:
    check_pools(pools)
    lines = [POOL_FORMAT_HEADER]
    for label in sorted(pools):
        pool = pools[label]
        lines.append(f"class {pool.class_label} {len(pool)} {pool.capacity}")
        for score, row in zip(pool.scores.tolist(), pool.matrix.tolist()):
            lines.append(" ".join(map(repr, [score, *row])))
    Path(path).write_text("\n".join(lines) + "\n")


def load_pools(path) -> dict[int, MemoryPool]:
    """Read pools written by :func:`save_pools`. Malformed content raises
    ConfigurationError naming its 1-based line number, and undecodable
    bytes one naming the file."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != POOL_FORMAT_HEADER:
        raise ConfigurationError(
            f"unrecognized pool file header: {lines[0] if lines else '<empty>'}"
        )
    pools: dict[int, MemoryPool] = {}
    width = None
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        try:
            if len(parts) != 4 or parts[0] != "class":
                raise ValueError
            label, count, capacity = (int(x) for x in parts[1:])
            check_count(count, "member count", 0)
        except ValueError:   # ConfigurationError is one
            raise ConfigurationError(
                f"line {i + 1}: malformed pool class line: {lines[i]!r}"
            ) from None
        if i + count >= len(lines):
            raise ConfigurationError(
                f"line {len(lines) + 1}: file ends after "
                f"{len(lines) - i - 1} of {count} members of class {label}"
            )
        if label in pools:
            raise ConfigurationError(f"line {i + 1}: repeated class {label}")
        rows, scores = [], []
        for j in range(i + 1, i + 1 + count):
            try:
                values = [float(x) for x in lines[j].split()]
            except ValueError:
                raise ConfigurationError(
                    f"line {j + 1}: unparseable number in {lines[j]!r}"
                ) from None
            if not all(map(math.isfinite, values)):
                raise ConfigurationError(f"line {j + 1}: non-finite value")
            if len(values) < 2:
                raise ConfigurationError(
                    f"line {j + 1}: member needs a score and coordinates"
                )
            if width is None:
                width = len(values) - 1
            if len(values) - 1 != width:
                raise ConfigurationError(
                    f"line {j + 1}: {len(values) - 1} coordinates, "
                    f"expected {width}"
                )
            scores.append(values[0])
            rows.append(values[1:])
        try:
            pools[label] = MemoryPool(label, capacity, matrix=rows,
                                      scores=scores)
        except ConfigurationError as err:
            raise ConfigurationError(f"line {i + 1}: {err}") from None
        i += 1 + count
    return pools


# ---------------------------------------------------------------------------
# standalone clonal selection reference procedure
# ---------------------------------------------------------------------------

@dataclass
class ClonalgResult:
    population: np.ndarray        # (pop_size, dim)
    memory_vectors: np.ndarray    # (m, dim), best first
    memory_scores: np.ndarray     # (m,)
    history: list[float]          # best memory score per generation


def clonalg_run(pattern, population_size: int, generations: int,
                config: CloneConfig, select_n: int = 10) -> ClonalgResult:
    """Population-based clonal selection against one target pattern, seeded
    by ``config.rng_seed``.

    Per generation: score the whole population, select the ``select_n``
    best, clone each proportionally to affinity, mutate all clones in one
    draw at their parents' inverse-affinity rates, reinsert, and refresh an
    elitist top-m memory set. The history records the best memory score per
    generation and is non-decreasing by construction.
    """
    pattern = check_array(pattern, "pattern").ravel()
    if not pattern.size:
        raise ConfigurationError("clonalg_run requires a non-empty pattern")
    if check_count(select_n, "select_n") > check_count(population_size,
                                                       "population_size"):
        raise ConfigurationError(f"select_n {select_n} exceeds "
                                 f"population_size {population_size}")
    check_count(generations, "generations")
    rng = np.random.default_rng(config.rng_seed)
    population = rng.uniform(0.0, 1.0, size=(population_size, pattern.size))

    memory = MemoryPool(class_label=0, capacity=config.memory_capacity)
    history: list[float] = []

    for _ in range(generations):
        scores = affinity_matrix(population, pattern)[:, 0]
        best = np.argsort(-scores)[:select_n]
        parent_scores = scores[best].tolist()
        counts = [clone_count(a, config.eta, 0.0) for a in parent_scores]
        rates = [mutation_rate(a, config.alpha) for a in parent_scores]
        offspring = mutate(np.repeat(population[best], counts, axis=0),
                           np.repeat(rates, counts)[:, None],
                           config.sigma, rng)
        merged = np.vstack([population, offspring])
        merged_scores = np.concatenate(
            [scores, affinity_matrix(offspring, pattern)[:, 0]])
        keep = np.argsort(-merged_scores)[:population_size]
        population = merged[keep]
        top = keep[:1]
        memory = update_memory(memory, merged[top], merged_scores[top])
        history.append(float(memory.scores[0]))

    return ClonalgResult(
        population=population,
        memory_vectors=memory.matrix,
        memory_scores=memory.scores,
        history=history,
    )
