"""Experiment harness: corpus preparation, paired training runs for the
plain and clonal network variants, deterministic CSV/SVG emission, and the
runnable experiments behind the CLI (training-set size sweep, error-vs-epoch
curve, two-class application with new-class gating, standalone clonal
selection demo).

Every run derives its random streams from (seed, size, purpose) tuples via
SeedSequence, so a repeated invocation with the same configuration writes
byte-identical artifacts. The plain and clonal variants of a given
(size, seed) cell share initial parameters, batch order, and training
subset; only the clonal hook differs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import synthdigits
from .classifier import (Decision, classify_batch, init_new_class,
                         write_decision_records)
from .clonal import (CloneConfig, ClonalExpander, ClonalgResult, MemoryPool,
                     clonalg_run, save_pools)
from .errors import (ConfigurationError, DimensionError, DivergenceError,
                     check_count, check_indices, check_real, read_text)
from .mnist import Dataset, batches, load_dataset, stratified_subset
from .nn import ArchConfig, evaluate, forward_features, init_params, train_epoch

CSV_HEADER = "variant,per_class_size,seed,epoch,train_error,test_error"
VARIANTS = ("cnn", "cnn-ais")
TEST_SUBSET_SEED = 9973
# a class pool holds MEMORY_FACTOR times the per-class training size
MEMORY_FACTOR = 3


@dataclass(frozen=True)
class ExperimentConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    variant: str = "both"            # cnn | cnn-ais | both
    sizes: tuple = (10, 25, 50, 100)
    seeds: tuple = (1, 2, 3)
    epochs: int = 15
    learning_rate: float = 0.1
    batch_size: int = 8
    eta: float = 5.0
    alpha: float = 0.1
    tau: float = 0.6
    sigma: float = 1.0
    tau_match: float = 0.8
    c_min: int = 1
    raw_count: bool = False
    test_subset: int = 1500
    curve_epochs: int = 20
    curve_per_class: int = 50
    two_class_labels: tuple = (0, 1)
    third_class: int = 3
    two_class_train: int = 20
    two_class_test: int = 200

    def __post_init__(self):
        if self.variant not in VARIANTS + ("both",):
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        # int fields and the distinct entries of tuple fields follow the rule
        for f in fields(self):
            low = 0 if f.name in ("seeds", "two_class_labels",
                                  "third_class") else 1
            value = getattr(self, f.name)
            if f.type == "int":
                check_count(value, f.name, low)
            elif f.type == "tuple":
                for entry in value:
                    check_count(entry, f.name, low)
                if not value or len(set(value)) != len(value):
                    raise ConfigurationError(
                        f"{f.name} must be non-empty and distinct: {value}")
        # zero is a legal no-op rate (useful for pure-evaluation passes)
        check_real(self.learning_rate, "learning_rate", 0, math.inf)
        check_real(self.tau_match, "tau_match", 0, 1)
        if (len(self.two_class_labels) != 2
                or self.third_class in self.two_class_labels):
            raise ConfigurationError(
                f"two_class_labels must be two ids and third_class a third, "
                f"got {self.two_class_labels} and {self.third_class}")
        # building a CloneConfig runs its range checks on the clone settings
        self.clone_config(1, 0)

    @property
    def matching_tau(self) -> float:
        return self.tau_match

    def clone_config(self, per_class: int, rng_seed: int) -> CloneConfig:
        return CloneConfig(
            eta=self.eta, alpha=self.alpha, tau=self.tau, sigma=self.sigma,
            memory_capacity=MEMORY_FACTOR * per_class, rng_seed=rng_seed,
        )


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored.
    A key given twice raises ConfigurationError naming its 1-based line."""
    mapping: dict[str, str] = {}
    for number, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise ConfigurationError(f"line {number}: repeated key {key!r}")
        mapping[key] = value
    return mapping


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    # each field's kind is its annotation, a string under postponed evaluation
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in kinds:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        kind, text = kinds[key], str(value).strip()
        try:
            if kind == "tuple":
                kwargs[key] = tuple(int(x) for x in text.split(","))
            elif kind == "bool":
                kwargs[key] = _BOOL_WORDS[text.lower()]
            elif kind == "int":
                kwargs[key] = int(text)
            elif kind == "float":
                kwargs[key] = float(text)
            else:
                kwargs[key] = str(value)
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"bad value {value!r} for configuration key {key!r}"
            ) from None
    return ExperimentConfig(**kwargs)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    mapping: dict[str, str] = {}
    if path is not None:
        mapping.update(parse_config_file(path))
    if overrides:
        mapping.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(mapping)


def derived_seed(*parts) -> int:
    """Stable child seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def ensure_corpus(data_dir) -> tuple[Dataset, Dataset]:
    """Load the four standard-named index files from ``data_dir``; if all
    four are missing, generate the bundled synthetic digit corpus there
    first. A directory holding some but not all of them raises
    ConfigurationError naming the missing ones, and nothing is written."""
    d = Path(data_dir)
    names = (synthdigits.TRAIN_IMAGES, synthdigits.TRAIN_LABELS,
             synthdigits.TEST_IMAGES, synthdigits.TEST_LABELS)
    missing = [n for n in names if not (d / n).exists()]
    if len(missing) == len(names):
        synthdigits.write_corpus(d)
    elif missing:
        raise ConfigurationError(
            f"{d} lacks {', '.join(missing)}; the synthetic corpus is "
            f"written only where all four index files are missing")
    train = load_dataset(d / names[0], d / names[1])
    test = load_dataset(d / names[2], d / names[3])
    return train, test


def fixed_test_subset(test: Dataset, total: int) -> Dataset:
    """Stratified evaluation subset, identical across every run: ``total``
    images, the same number from each class; a ``total`` that is not a
    positive multiple of the class count raises ConfigurationError."""
    classes = len(test.class_ids)
    if not classes:
        raise ConfigurationError("the dataset has no classes")
    try:
        per_class, extra = divmod(check_count(total, "total"), classes)
    except ConfigurationError:
        extra = True
    if extra:
        raise ConfigurationError(
            f"test subset of {total} images is not a positive multiple of "
            f"the {classes} classes")
    return stratified_subset(test, per_class, seed=TEST_SUBSET_SEED)


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    variant: str
    per_class_size: int
    seed: int
    epoch: int
    train_error: float
    test_error: float


def train_variant(train_ds: Dataset, test_ds: Dataset, variant: str,
                  per_class: int, seed: int, cfg: ExperimentConfig,
                  arch: ArchConfig, epochs: int, record_epochs: bool):
    """Train one (variant, size, seed) cell.

    Returns (rows, params, expander). ``rows`` carries one SweepResult per
    epoch when ``record_epochs`` else only the final epoch. The expander is
    None for the plain variant.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    side = (arch.image_size, arch.image_size)
    for name, ds in (("train", train_ds), ("test", test_ds)):
        if ds.images.shape[1:] != side:
            raise ConfigurationError(
                f"{name} images are {ds.images.shape[1:]}, the network "
                f"takes {side}"
            )
        try:
            check_indices(ds.labels, "label", arch.num_classes, 1)
        except (ConfigurationError, DimensionError) as err:
            raise type(err)(f"{name} {err}") from None
    params = init_params(derived_seed(seed, per_class, 11), arch)
    expander = None
    if variant == "cnn-ais":
        expander = ClonalExpander(
            cfg.clone_config(per_class, derived_seed(seed, per_class, 37))
        )
    rows = []
    for epoch in range(1, epochs + 1):
        batch_list = batches(train_ds, cfg.batch_size,
                             seed=derived_seed(seed, per_class, 23, epoch))
        try:
            params, train_error = train_epoch(params, batch_list,
                                              cfg.learning_rate, expander)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}, {exc}") from exc
        if record_epochs or epoch == epochs:
            test_error = evaluate(params, test_ds.images, test_ds.labels)
            rows.append(SweepResult(variant, per_class, seed, epoch,
                                    train_error, test_error))
    return rows, params, expander


def _train_cells(cfg: ExperimentConfig, data, cells, epochs: int,
                 record_epochs: bool):
    """Train each (variant, size, seed) cell on its stratified subset. Returns
    the rows in cell order and each clonal cell's pools keyed by seed."""
    train, test = data if data is not None else ensure_corpus(cfg.data_dir)
    # the subset first: on an empty corpus it names the cause
    test_fixed = fixed_test_subset(test, cfg.test_subset)
    arch = ArchConfig(num_classes=len(train.class_ids))
    rows, pools_by_seed = [], {}
    for variant, size, seed in cells:
        subset = stratified_subset(train, size, seed=derived_seed(seed, size, 5))
        cell_rows, _, expander = train_variant(
            subset, test_fixed, variant, size, seed, cfg, arch,
            epochs=epochs, record_epochs=record_epochs)
        rows.extend(cell_rows)
        if expander is not None:
            pools_by_seed[seed] = expander.pools
    return rows, pools_by_seed


def run_size_sweep(cfg: ExperimentConfig,
                   data: tuple[Dataset, Dataset] | None = None
                   ) -> list[SweepResult]:
    """Final-epoch train/test error for every (variant, size, seed) cell.

    Paired design: both variants of a cell see the same training subset,
    initial parameters, and batch order.
    """
    variants = VARIANTS if cfg.variant == "both" else (cfg.variant,)
    cells = itertools.product(variants, cfg.sizes, cfg.seeds)
    return _train_cells(cfg, data, cells, cfg.epochs, record_epochs=False)[0]


def run_epoch_curve(cfg: ExperimentConfig,
                    data: tuple[Dataset, Dataset] | None = None):
    """Per-epoch error curve at a fixed per-class size.

    Returns (rows, pools_by_seed); pools are kept for the clonal variant so
    the caller can serialize them.
    """
    variant = "cnn-ais" if cfg.variant == "both" else cfg.variant
    cells = [(variant, cfg.curve_per_class, seed) for seed in cfg.seeds]
    return _train_cells(cfg, data, cells, cfg.curve_epochs, record_epochs=True)


# ---------------------------------------------------------------------------
# two-class application with new-class gating
# ---------------------------------------------------------------------------

@dataclass
class TwoClassResult:
    accuracy: float
    decisions: list[Decision]
    true_labels: list[int]
    third_total: int
    third_nomatch: int
    third_recognized_after: int
    pools: dict[int, MemoryPool]


def _subset_of_labels(ds: Dataset, wanted: tuple, per_class: int,
                      seed: int) -> Dataset:
    keep = np.isin(ds.labels, np.asarray(wanted))
    remapped = Dataset(
        images=ds.images[keep],
        labels=np.array([wanted.index(int(l)) for l in ds.labels[keep]],
                        dtype=np.int64),
    )
    return stratified_subset(remapped, per_class, seed=seed)


def run_two_class_application(cfg: ExperimentConfig,
                              data: tuple[Dataset, Dataset] | None = None
                              ) -> TwoClassResult:
    """Train the clonal variant on two classes, classify a held-out test set
    through the antibody pools, and drive the no-match path with samples
    from a class the pools have never seen."""
    train, test = data if data is not None else ensure_corpus(cfg.data_dir)
    labels = tuple(int(l) for l in cfg.two_class_labels)
    for label in labels:
        for name, ds in (("training", train), ("test", test)):
            if not np.any(ds.labels == label):
                raise ConfigurationError(
                    f"two-class label {label} has no {name} image")
    if not np.any(test.labels == cfg.third_class):
        raise ConfigurationError(
            f"third class {cfg.third_class} has no test image")
    seed = cfg.seeds[0]
    arch = ArchConfig(num_classes=2)

    train_sub = _subset_of_labels(train, labels, cfg.two_class_train,
                                  seed=derived_seed(seed, 2, 5))
    test_sub = _subset_of_labels(test, labels, max(1, cfg.two_class_test // 2),
                                 seed=derived_seed(seed, 2, 7))

    _, params, expander = train_variant(
        train_sub, test_sub, "cnn-ais", cfg.two_class_train, seed, cfg, arch,
        epochs=cfg.epochs, record_epochs=False,
    )

    # pools were trained on remapped ids 0/1; re-key them by the real labels
    pools: dict[int, MemoryPool] = {}
    for net_label, pool in expander.pools.items():
        real = labels[net_label]
        pools[real] = MemoryPool(real, pool.capacity, matrix=pool.matrix,
                                 scores=pool.scores)

    features, _ = forward_features(params, test_sub.images)
    decisions = classify_batch(features, pools, cfg.matching_tau,
                               c_min=cfg.c_min, raw_count=cfg.raw_count)
    true_labels = [labels[int(l)] for l in test_sub.labels]
    correct = sum(not d.no_match and d.predicted_class == real
                  for d, real in zip(decisions, true_labels))
    accuracy = correct / len(decisions) if decisions else 0.0

    # third-class probe: unseen patterns should fail the match threshold,
    # and the first failure seeds a brand-new pool, against which the
    # images after it are classified
    third_mask = test.labels == cfg.third_class
    third_images = test.images[third_mask][:50]
    rng = np.random.default_rng(derived_seed(seed, cfg.third_class, 13))
    third_features, _ = forward_features(params, third_images)
    third = classify_batch(third_features, pools, cfg.matching_tau,
                           c_min=cfg.c_min, raw_count=cfg.raw_count)
    first = next((i for i, d in enumerate(third) if d.no_match), len(third))
    recognized_after = 0
    if first < len(third):
        pools[cfg.third_class] = init_new_class(
            third_features[first], cfg.third_class,
            cfg.clone_config(cfg.two_class_train, derived_seed(seed, 17)),
            rng, existing=pools,
        )
        after = classify_batch(third_features[first + 1:], pools,
                               cfg.matching_tau, c_min=cfg.c_min,
                               raw_count=cfg.raw_count)
        third[first + 1:] = after
        recognized_after = sum(not d.no_match
                               and d.predicted_class == cfg.third_class
                               for d in after)
    third_nomatch = sum(d.no_match for d in third)

    return TwoClassResult(
        accuracy=accuracy, decisions=decisions, true_labels=true_labels,
        third_total=len(third_images), third_nomatch=third_nomatch,
        third_recognized_after=recognized_after, pools=pools,
    )


# ---------------------------------------------------------------------------
# clonal selection demo
# ---------------------------------------------------------------------------

# 8x8 binary target glyph for the standalone demo
DEMO_PATTERN = np.array([
    [1, 0, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 0, 1],
], dtype=np.float64)


def run_clonalg_demo(population_size: int = 50, generations: int = 200,
                     eta: float = 10.0, alpha: float = 0.2,
                     sigma: float = 0.1, select_n: int = 10,
                     seed: int = 1) -> ClonalgResult:
    config = CloneConfig(eta=eta, alpha=alpha, tau=0.0, sigma=sigma,
                         memory_capacity=10, rng_seed=seed)
    return clonalg_run(DEMO_PATTERN, population_size, generations, config,
                       select_n=select_n)


# ---------------------------------------------------------------------------
# artifact emission (all byte-deterministic)
# ---------------------------------------------------------------------------

def emit_csv(path, rows: list[SweepResult]) -> None:
    if not rows:
        raise ConfigurationError("refusing to write an empty results table")
    ordered = sorted(rows, key=lambda r: (r.variant, r.per_class_size,
                                          r.seed, r.epoch))
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(f"{r.variant},{r.per_class_size},{r.seed},{r.epoch},"
                     f"{float(r.train_error)!r},{float(r.test_error)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


_PALETTE = ("#1b6ca8", "#c0392b", "#2e8b57", "#8e44ad", "#d35400", "#16a085")


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def emit_svg_lineplot(path, series, title: str, x_label: str,
                      y_label: str) -> None:
    """Minimal deterministic 640x420 line plot: ``series`` is a list of
    (name, [(x, y), ...]) pairs. No external plotting dependency so the
    bytes are stable across environments."""
    width, height = 640, 420
    if not series or all(not pts for _, pts in series):
        raise ConfigurationError("refusing to plot an empty series list")
    left, right, top, bottom = 70, 25, 45, 55
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05

    def sx(x: float) -> str:
        return f"{left + (x - x_lo) / (x_hi - x_lo) * (width - left - right):.2f}"

    def sy(y: float) -> str:
        return f"{height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = f'stroke="#333333" stroke-width="1"'
    parts.append(f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
                 f'y2="{height - bottom}" {axis}/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{height - bottom}" {axis}/>')
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{left - 4}" y1="{y}" x2="{width - right}" '
                     f'y2="{y}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="11">{tick:.3f}</text>')
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(f'<text x="{x}" y="{height - bottom + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tick:g}</text>')
    parts.append(f'<text x="{width // 2}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{x_label}</text>')
    parts.append(f'<text x="18" y="{height // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {height // 2})">{y_label}</text>')

    for k, (name, pts) in enumerate(series):
        if not pts:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="3" '
                         f'fill="{color}"/>')
        ly = top + 16 * k
        parts.append(f'<line x1="{width - right - 130}" y1="{ly}" '
                     f'x2="{width - right - 106}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - right - 100}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def sweep_summary_series(rows: list[SweepResult]):
    """Mean test error per (variant, size), shaped for the line plot."""
    grouped: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        grouped.setdefault((r.variant, r.per_class_size), []).append(r.test_error)
    series: dict[str, list[tuple[float, float]]] = {}
    for (variant, size), errs in sorted(grouped.items()):
        series.setdefault(variant, []).append((float(size),
                                               float(np.mean(errs))))
    return [(variant, pts) for variant, pts in sorted(series.items())]


def curve_series(rows: list[SweepResult]):
    """Test error per epoch, one series per seed."""
    grouped: dict[int, list[tuple[float, float]]] = {}
    for r in rows:
        grouped.setdefault(r.seed, []).append((float(r.epoch),
                                               float(r.test_error)))
    return [(f"seed {seed}", sorted(pts))
            for seed, pts in sorted(grouped.items())]
