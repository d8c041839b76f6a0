"""Two-phase immune classification over per-class antibody pools.

Phase 1 counts, per class, the pool antibodies whose affinity to the test
feature clears a match threshold. Phase 2 scores each class that produced
enough matches by avidity, the mean affinity of its matching antibodies;
both phases read the same affinity row, one per pool. The combined score
is count (normalized by pool size by default) plus avidity; the class with
the highest score wins, ties going to the lowest class id. A test feature
that matches nothing is flagged instead of being forced into a class, and a
fresh pool can be initialized from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clonal
from .clonal import CloneConfig, MemoryPool, mutate
from .errors import ConfigurationError

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
    """Score every class pool against the test feature.

    One affinity row per non-empty pool gives both phases: the count is the
    number of entries >= ``tau_match`` (0 for an empty pool), and a class
    with at least ``c_min`` matches gets their mean affinity as avidity.
    Score = count / pool_size + avidity (or raw count + avidity when
    ``raw_count``). If no class qualifies the decision is a no-match.
    """
    if not pools:
        raise ConfigurationError("classify requires at least one pool")
    if c_min < 1:
        raise ConfigurationError(f"c_min must be >= 1, got {c_min}")
    decision = Decision(predicted_class=None, no_match=True)
    for label in sorted(pools):
        pool = pools[label]
        if not len(pool):
            decision.counts[label] = 0
            continue
        row = clonal.pool_affinities([test_feature], pool)[0]
        matched = row[row >= tau_match]
        count = len(matched)
        decision.counts[label] = count
        if count < c_min:
            continue
        avidity_value = float(matched.mean())
        count_term = float(count) if raw_count else count / len(pool)
        decision.avidities[label] = avidity_value
        decision.scores[label] = count_term + avidity_value

    if decision.scores:
        # max score, ties resolved toward the lowest class id
        best = min(decision.scores, key=lambda c: (-decision.scores[c], c))
        decision.predicted_class = best
        decision.no_match = False
    return decision


def init_new_class(test_feature: np.ndarray, label: int, config: CloneConfig,
                   rng: np.random.Generator,
                   existing: dict[int, MemoryPool] | None = None) -> MemoryPool:
    """Start a pool for an unrecognized pattern: the feature itself plus
    capacity - 1 lightly mutated variants (rate 1, scale sigma)."""
    if existing is not None and label in existing:
        raise ConfigurationError(f"class {label} already has a pool")
    seed = np.asarray(test_feature, dtype=np.float64)
    variants = np.array([mutate(seed, 1.0, config.sigma, rng)
                         for _ in range(config.memory_capacity - 1)]
                        ).reshape(-1, seed.size)
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
