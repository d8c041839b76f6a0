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
from .errors import ConfigurationError, check_array, check_count, check_real

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
    feature = check_array(test_feature, "test feature", 1)
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
    qualifies is a no-match. The non-empty pools must share one width,
    the features': other widths raise DimensionError naming a class, and
    bad ``pools``, a ``tau_match`` not a real in [0, 1] or a ``c_min`` not
    an integer >= 1, ConfigurationError.
    """
    if not pools:
        raise ConfigurationError("classify requires at least one pool")
    check_count(c_min, "c_min")
    check_real(tau_match, "tau_match", 0, 1)
    x = check_array(features, "test features", 2)
    try:
        stack = _stacked(tuple(sorted(pools.items())),
                         tuple(map(type, pools)))
    except (AttributeError, TypeError):
        # not a dict, or keys or pools that cannot be sorted or hashed
        clonal.check_pools(pools)
        raise
    counts = sums = np.zeros((len(x), 0))
    if stack.filled:
        aff = clonal._affinity_table(
            x, [(0, len(x), stack.filled[0], stack.reference)])
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
    reference: tuple            # their stacked clonal reference rows


@functools.lru_cache(maxsize=1)
def _stacked(pools: tuple[tuple[int, MemoryPool], ...],
             key_types: tuple[type, ...]) -> _Stack:
    """The (label, pool) pairs in label order as ``classify_batch`` reads
    them, kept for the next call with the same pools; pools hash by
    identity and their reference rows are read-only, so a kept stack
    cannot go stale. ``key_types``, the types of the pools' keys, is read
    only as part of the cache key: ``0.0`` and ``True`` equal ``0`` and
    ``1``, so without it a call with such keys would reuse the stack of
    integer-keyed pools instead of being refused.

    The pools are checked here, once per set of pools, so their
    non-empty pools share one width, and their members are stacked into
    one reference, of no rows when no pool has members."""
    clonal.check_pools(dict(pools))
    filled = [(label, pool) for label, pool in pools if len(pool)]
    sizes = [len(pool) for _, pool in filled]
    reference = clonal._reference(np.concatenate(
        [pool.matrix for _, pool in filled] or [np.empty((0, 0))]))
    return _Stack(labels=[label for label, _ in pools],
                  filled=[label for label, _ in filled], sizes=sizes,
                  offsets=np.array(list(accumulate(sizes[:-1], initial=0)),
                                   dtype=np.intp),
                  reference=reference)


def init_new_class(test_feature: np.ndarray, label: int, config: CloneConfig,
                   rng: np.random.Generator,
                   existing: dict[int, MemoryPool]) -> MemoryPool:
    """Start a pool for an unrecognized pattern, to join the ``existing``
    pools: the feature itself plus capacity - 1 lightly mutated variants
    (rate 1, scale sigma). A feature that is not a vector or misfits the
    ``existing`` pools' width raises DimensionError, and ``existing`` not a
    set of pools, a ``label`` that already has a pool or is not an integer
    >= 0, or a non-finite feature ConfigurationError, before any draw."""
    clonal.check_pools(existing)
    seed = check_array(test_feature, "test feature", 1)
    first = MemoryPool(label, config.memory_capacity, matrix=seed[None, :],
                       scores=[1.0])
    if label in existing:
        raise ConfigurationError(f"class {label} already has a pool")
    clonal.check_pools({**existing, label: first})
    shape = (config.memory_capacity - 1, seed.size)
    variants = mutate(np.broadcast_to(seed, shape), 1.0, config.sigma, rng)
    scores = clonal.affinity_matrix(variants, seed)[:, 0]
    return clonal.update_memory(first, variants, scores)


# ---------------------------------------------------------------------------
# decision records
# ---------------------------------------------------------------------------

def write_decision_records(path, decisions: list[Decision], class_ids) -> None:
    """One CSV line per decision, numbered from 0: the predicted class or
    NOMATCH, then each class's count, avidity and score in class order; an
    avidity or score the class did not get is left empty."""
    ids = sorted(class_ids)
    lines = [",".join(["test_id", "predicted"] + [
        f"{column}_{c}" for c in ids
        for column in ("count", "avidity", "score")])]
    for i, decision in enumerate(decisions):
        cols = [str(i), NOMATCH if decision.no_match
                else str(decision.predicted_class)]
        for c in ids:
            cols.append(str(decision.counts.get(c, 0)))
            cols.append(repr(decision.avidities[c])
                        if c in decision.avidities else "")
            cols.append(repr(decision.scores[c])
                        if c in decision.scores else "")
        lines.append(",".join(cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
