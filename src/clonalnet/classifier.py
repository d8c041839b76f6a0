"""Two-phase immune classification over per-class antibody pools.

Phase 1 counts, per class, the pool antibodies whose affinity to the test
feature clears a match threshold. Phase 2 scores each class that produced
enough matches by avidity, the mean affinity of its matching antibodies.
Both phases read one clonal affinity table per batch of test features,
one matrix product against the non-empty pools stacked in label order; a
single feature is a batch of one. The stack, prepared once as clonal
reference rows, and the per-class sizes and offsets are kept until the
pools change, so a batch prepares only its own rows. The combined score
is count (normalized by pool size by default) plus avidity; the class with
the highest score wins, ties going to the lowest class id. A test feature
that matches nothing is flagged instead of being forced into a class, and a
fresh pool can be initialized from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import clonal
from .clonal import CloneConfig, MemoryPool, mutate
from .errors import ConfigurationError, DimensionError

NOMATCH = "NOMATCH"


@dataclass
class Decision:
    predicted_class: int | None
    no_match: bool
    counts: dict[int, int] = field(default_factory=dict)
    avidities: dict[int, float] = field(default_factory=dict)
    scores: dict[int, float] = field(default_factory=dict)


def classify(test_feature: np.ndarray, pools: dict[int, MemoryPool],
             tau_match: float, c_min: int = 1,
             raw_count: bool = False) -> Decision:
    """The decision for one ``(d,)`` test feature: :func:`classify_batch`
    on a one-row batch."""
    feature = np.asarray(test_feature, dtype=np.float64)
    if feature.ndim != 1:
        raise DimensionError(
            f"test feature must be a vector, got shape {feature.shape}")
    return classify_batch(feature[None, :], pools, tau_match, c_min,
                          raw_count)[0]


def classify_batch(features: np.ndarray, pools: dict[int, MemoryPool],
                   tau_match: float, c_min: int = 1,
                   raw_count: bool = False) -> list[Decision]:
    """Score every class pool against each row of ``features`` (n, d).

    The non-empty pools are stacked in label order into one (M, d) matrix,
    and one affinity table against it, equal to ``affinity_matrix`` of the
    features and the stack, gives both phases for every row: a
    class's count is the number of its pool's entries >= ``tau_match`` (0
    for an empty pool), and a class with at least ``c_min`` matches gets
    their mean affinity as avidity. Score = count / pool_size + avidity (or
    raw count + avidity when ``raw_count``). A row for which no class
    qualifies is a no-match. A pool whose width differs from the features'
    raises DimensionError naming its class, and a ``tau_match`` outside
    [0, 1] or a ``c_min`` below 1, NaN included, ConfigurationError.
    """
    if not pools:
        raise ConfigurationError("classify requires at least one pool")
    if not c_min >= 1:
        raise ConfigurationError(f"c_min must be >= 1, got {c_min}")
    if not 0.0 <= tau_match <= 1.0:
        raise ConfigurationError(
            f"tau_match must be in [0, 1], got {tau_match}")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(
            f"test features must be (n, d) rows, got shape {x.shape}")
    stack = _stacked(tuple(sorted(pools.items())))
    if stack.width != x.shape[1]:
        # the pools differ in width, or share one that is not the batch's
        for label in stack.filled:
            width = pools[label].matrix.shape[1]
            if width != x.shape[1]:
                raise DimensionError(
                    f"rows of width {x.shape[1]} do not fit the width-"
                    f"{width} pool of class {label}")
    counts = sums = np.zeros((len(x), 0))
    if stack.filled:
        aff = clonal._affinity_table(x, [(0, len(x), None, stack.reference)])
        hit = aff >= tau_match
        counts = np.add.reduceat(hit, stack.offsets, axis=1, dtype=np.intp)
        sums = np.add.reduceat(np.where(hit, aff, 0.0), stack.offsets, axis=1)

    decisions = []
    for row_counts, row_sums in zip(counts.tolist(), sums.tolist()):
        decision = Decision(predicted_class=None, no_match=True,
                            counts=dict.fromkeys(stack.labels, 0))
        for label, size, count, total in zip(stack.filled, stack.sizes,
                                             row_counts, row_sums):
            decision.counts[label] = count
            if count < c_min:
                continue
            avidity_value = total / count
            count_term = float(count) if raw_count else count / size
            decision.avidities[label] = avidity_value
            decision.scores[label] = count_term + avidity_value
        if decision.scores:
            # max score, ties resolved toward the lowest class id
            scores = decision.scores
            decision.predicted_class = min(scores,
                                           key=lambda c: (-scores[c], c))
            decision.no_match = False
        decisions.append(decision)
    return decisions


class _Stack(NamedTuple):
    """What :func:`classify_batch` reads of one set of pools."""

    labels: list[int]           # every class, in label order
    filled: list[int]           # the classes whose pool is not empty
    sizes: list[int]            # their pools' member counts
    offsets: np.ndarray         # where each of them starts in the stack
    width: int | None           # their common width, None if they differ
    reference: tuple | None     # their stacked clonal reference rows


@functools.lru_cache(maxsize=1)
def _stacked(pools: tuple[tuple[int, MemoryPool], ...]) -> _Stack:
    """The (label, pool) pairs in label order as ``classify_batch`` reads
    them, kept for the next call with the same pools; pools hash by
    identity and their reference rows are read-only, so a kept stack
    cannot go stale.

    The non-empty pools' members are stacked into one reference. Pools of
    different widths fit no batch, so they have no width and no
    reference."""
    filled = [(label, pool) for label, pool in pools if len(pool)]
    sizes = [len(pool) for _, pool in filled]
    widths = {pool.matrix.shape[1] for _, pool in filled}
    width = reference = None
    if len(widths) == 1:
        (width,) = widths
        reference = clonal._reference(
            np.concatenate([pool.matrix for _, pool in filled]))
    return _Stack(labels=[label for label, _ in pools],
                  filled=[label for label, _ in filled], sizes=sizes,
                  offsets=np.array(list(accumulate(sizes[:-1], initial=0)),
                                   dtype=np.intp),
                  width=width, reference=reference)


def init_new_class(test_feature: np.ndarray, label: int, config: CloneConfig,
                   rng: np.random.Generator,
                   existing: dict[int, MemoryPool] | None = None) -> MemoryPool:
    """Start a pool for an unrecognized pattern: the feature itself plus
    capacity - 1 lightly mutated variants (rate 1, scale sigma)."""
    if existing is not None and label in existing:
        raise ConfigurationError(f"class {label} already has a pool")
    seed = np.asarray(test_feature, dtype=np.float64)
    shape = (config.memory_capacity - 1, seed.size)
    variants = mutate(np.broadcast_to(seed, shape), 1.0, config.sigma, rng)
    scores = clonal.affinity_matrix(variants, seed)[:, 0]
    empty = MemoryPool(class_label=label, capacity=config.memory_capacity)
    return clonal.update_memory(empty, np.vstack([seed, variants]),
                                [1.0, *scores])


# ---------------------------------------------------------------------------
# decision records
# ---------------------------------------------------------------------------

def decision_record_header(class_ids) -> str:
    cols = ["test_id", "predicted"]
    for c in sorted(class_ids):
        cols += [f"count_{c}", f"avidity_{c}", f"score_{c}"]
    return ",".join(cols)


def format_decision_record(test_id: int, decision: Decision,
                           class_ids) -> str:
    cols = [str(test_id),
            NOMATCH if decision.no_match else str(decision.predicted_class)]
    for c in sorted(class_ids):
        cols.append(str(decision.counts.get(c, 0)))
        cols.append(repr(decision.avidities[c]) if c in decision.avidities else "")
        cols.append(repr(decision.scores[c]) if c in decision.scores else "")
    return ",".join(cols)


def write_decision_records(path, decisions: list[Decision], class_ids) -> None:
    lines = [decision_record_header(class_ids)]
    lines += [format_decision_record(i, d, class_ids)
              for i, d in enumerate(decisions)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
