"""The clonalnet benchmark workloads, their correctness checks and metrics.

Every workload generates its inputs from the seed, sets up several times
(the median is ``setup_s``), then runs identical passes in one closed loop
until the next pass would overrun the time budget. The program is measured
from outside: the benchmark calls clonalnet's public functions, and a
traced pass wraps them where their callers look them up.

- ``train_cnn``: ``harness.train_variant(..., "cnn", ...)`` on a stratified
  subset, then the test-subset evaluation inside it. ``tensor`` and ``nn``
  do nearly all the work, so this is the control for pool and classifier
  changes.
- ``train_ais``: the same cell with the clonal hook (``"cnn-ais"``), sharing
  subset, initial parameters and batch order; the gap to ``train_cnn`` is
  the price of the clonal layer.
- ``immune_classify``: set-up trains ``cnn-ais`` for the train workloads'
  epochs, which fills every pool, round-trips the pools through
  ``save_pools``/``load_pools`` and withholds one class. A pass runs
  ``forward_features`` plus ``classify`` per test image; the withheld
  class's first no-match creates its pool.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import resource
import sys
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from clonalnet import classifier, clonal, harness, mnist, nn, synthdigits, tensor
import speed
from spans import Tracer, patched

WORKLOADS = ("train_cnn", "train_ais", "immune_classify")
VARIANT = {"train_cnn": "cnn", "train_ais": "cnn-ais"}
CFG = harness.ExperimentConfig()   # shipped defaults: batch 8, lr 0.1, tau_match 0.8

FEATURE_TOLERANCE = 1e-9
# affinities this close to tau_match may fall either side of it depending on
# summation order, so a count that differs there is not a disagreement
THRESHOLD_SLACK = 1e-12
TRAIN_WINDOW_BATCHES = 8
SETUP_PIECE_DIGITS = 250
CLASSIFY_WINDOW_DECISIONS = 25
EVAL_CHUNK_IMAGES = 10
EVAL_WINDOW_CHUNKS = 10

# purposes for child seeds drawn from the workload seed
_CORPUS, _SUBSET, _ORDER, _NEW_CLASS, _CHECK = range(1, 6)


@dataclass(frozen=True)
class Scale:
    """Input sizes. The defaults are the benchmark; tests shrink them."""

    corpus_train_per_class: int = 600
    corpus_test_per_class: int = 150
    per_class: int = 50
    epochs: int = 3
    test_subset: int = 1500
    decisions: int = 600
    setups: int = 3
    check_images: int = 2
    check_decisions: int = 6
    # learning sanity bound on the final-epoch training error (chance is
    # 0.9); it catches broken gradients, which the forward check cannot
    max_train_error: float = 0.5


def child_seed(seed: int, purpose: int) -> int:
    return int(np.random.SeedSequence([seed, purpose]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# wrapping the program's public functions
# ---------------------------------------------------------------------------

# span name -> every (owner, attribute) through which callers reach it
SPAN_SITES = {
    "tensor.conv2d_valid": [(nn, "conv2d_valid")],
    "tensor.maxpool2": [(nn, "maxpool2")],
    "tensor.maxpool2_backward": [(nn, "maxpool2_backward")],
    "tensor.dense": [(nn, "dense")],
    "tensor.dense_backward": [(nn, "dense_backward")],
    "nn.forward_features": [(nn, "forward_features"),
                            (harness, "forward_features")],
    "nn.forward_output": [(nn, "forward_output")],
    "nn.train_epoch": [(harness, "train_epoch")],
    "nn.evaluate": [(harness, "evaluate")],
    "nn.sgd_step": [(nn, "sgd_step")],
    "clonal.expand": [(clonal.ClonalExpander, "__call__")],
    "clonal.generate_clones": [(clonal, "generate_clones")],
    "clonal.pool_affinities": [(clonal, "pool_affinities")],
    "clonal.update_memory": [(clonal, "update_memory")],
    "clonal.load_pools": [(clonal, "load_pools")],
    "classifier.classify": [(classifier, "classify")],
    "classifier.init_new_class": [(classifier, "init_new_class")],
    "mnist.load_dataset": [(mnist, "load_dataset"), (harness, "load_dataset")],
    "synthdigits.write_corpus": [(synthdigits, "write_corpus")],
}


def _count_conv_flops(counts, args, result):
    kh, kw = np.shape(args[1])
    counts["tensor.conv_flops"] += 2 * result.size * kh * kw


def _count_pairs(counts, args, result):
    counts["clonal.pool_affinities.pairs"] += result.size


def _count_accepted(counts, args, result):
    counts["clonal.clones_accepted"] += len(result)


def _count_originals(counts, args, result):
    counts["clonal.originals"] += len(args[2])   # __call__(self, features, labels)


def _count_bytes(counts, args, result):
    counts["mnist.bytes_parsed"] += sum(Path(p).stat().st_size for p in args[:2])


_COUNTERS = {
    "tensor.conv2d_valid": _count_conv_flops,
    "clonal.pool_affinities": _count_pairs,
    "clonal.generate_clones": _count_accepted,
    "clonal.expand": _count_originals,
    "mnist.load_dataset": _count_bytes,
}


def span_replacements(tracer: Tracer) -> list:
    """(owner, attribute, traced function) for every site in SPAN_SITES,
    plus a counter on ``clone_count``, whose results sum to the clones
    ``generate_clones`` proposes."""
    out = []
    for name, sites in SPAN_SITES.items():
        traced = tracer.wrap(name, getattr(*sites[0]), _COUNTERS.get(name))
        out += [(owner, attr, traced) for owner, attr in sites]
    clone_count = clonal.clone_count

    def counted_clone_count(*args, **kwargs):
        n = clone_count(*args, **kwargs)
        tracer.counts["clonal.clones_proposed"] += n
        return n
    out.append((clonal, "clone_count", counted_clone_count))
    return out


def traced_replacements(tracer: Tracer, speedometer: speed.Speedometer) -> list:
    """``span_replacements`` plus a ``speed.reference`` span around each
    speed probe."""
    return span_replacements(tracer) + [
        (speedometer, "probe", tracer.wrap("speed.reference", speedometer.probe))]


def params_finite(params) -> bool:
    return all(np.isfinite(getattr(params, f.name)).all()
               for f in dataclasses.fields(params))


class TrainClock:
    """Times training batches and chunks of evaluated images from outside
    ``train_epoch`` and ``evaluate``: a batch ends when its SGD step
    returns, a chunk when its last ``predict`` returns, and the next one
    starts there. Each SGD step's parameters are also checked for
    non-finite values. The speed reference runs after every batch and
    chunk, outside the timed intervals."""

    def __init__(self, speedometer: speed.Speedometer):
        self.speedometer = speedometer
        self.batch_s: list[float] = []
        self.batch_n: list[int] = []
        self.batch_ref_s: list[float] = []
        self.eval_s: list[float] = []
        self.eval_n: list[int] = []
        self.eval_ref_s: list[float] = []
        self.nonfinite_batches = 0
        self._mark = 0.0
        self._sizes = iter(())
        self._chunk = 0

    def _close_chunk(self) -> None:
        if self._chunk:
            self.eval_s.append(perf_counter() - self._mark)
            self.eval_n.append(self._chunk)
            self.eval_ref_s.append(self.speedometer.probe())
        self._chunk = 0
        self._mark = perf_counter()

    def replacements(self) -> list:
        # captured now, so a traced function already in place stays inside
        train_epoch, sgd_step = harness.train_epoch, nn.sgd_step
        evaluate, predict = harness.evaluate, nn.predict

        def timed_train_epoch(params, batches, *rest):
            batches = list(batches)
            self._sizes = iter([len(labels) for _, labels in batches])
            self._mark = perf_counter()
            return train_epoch(params, batches, *rest)

        def timed_sgd_step(*args):
            params = sgd_step(*args)
            self.batch_s.append(perf_counter() - self._mark)
            self.batch_n.append(next(self._sizes))
            self.batch_ref_s.append(self.speedometer.probe())
            if not params_finite(params):
                self.nonfinite_batches += 1
            self._mark = perf_counter()
            return params

        def timed_evaluate(*args):
            self._close_chunk()
            error = evaluate(*args)
            self._close_chunk()
            return error

        def timed_predict(*args):
            label = predict(*args)
            self._chunk += 1
            if self._chunk == EVAL_CHUNK_IMAGES:
                self._close_chunk()
            return label

        return [(harness, "train_epoch", timed_train_epoch),
                (nn, "sgd_step", timed_sgd_step),
                (harness, "evaluate", timed_evaluate),
                (nn, "predict", timed_predict)]


class SetupClock:
    """Times one set-up in pieces, each scaled by the speed reference run
    after it (outside the pieces): a piece ends after every
    ``SETUP_PIECE_DIGITS``-th rendered corpus digit and after every SGD
    step of set-up training, and the last one when the set-up returns."""

    def __init__(self, speedometer: speed.Speedometer):
        self.speedometer = speedometer
        self.piece_s: list[float] = []
        self.ref_s: list[float] = []
        self._mark = perf_counter()

    def tick(self) -> None:
        self.piece_s.append(perf_counter() - self._mark)
        self.ref_s.append(self.speedometer.probe())
        self._mark = perf_counter()

    def replacements(self) -> list:
        render, sgd_step = synthdigits.render_digit, nn.sgd_step
        rendered = itertools.count(1)

        def ticking_render(*args, **kwargs):
            image = render(*args, **kwargs)
            if next(rendered) % SETUP_PIECE_DIGITS == 0:
                self.tick()
            return image

        def ticking_sgd_step(*args):
            params = sgd_step(*args)
            self.tick()
            return params

        return [(synthdigits, "render_digit", ticking_render),
                (nn, "sgd_step", ticking_sgd_step)]

    def seconds(self) -> float:
        """The set-up's time at nominal machine speed; call once, right
        after it returns."""
        self.tick()
        return sum(self.speedometer.scale_each(self.piece_s, self.ref_s))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    train: mnist.Dataset           # stratified training subset
    test: mnist.Dataset            # fixed test subset
    arch: nn.ArchConfig
    # immune_classify only
    params: nn.LayerStack | None = None
    pools: dict = field(default_factory=dict)
    images: np.ndarray | None = None
    labels: np.ndarray | None = None


def set_up(workload: str, seed: int, scale: Scale, work_dir: Path) -> Inputs:
    corpus = work_dir / "corpus"
    synthdigits.write_corpus(corpus, scale.corpus_train_per_class,
                             scale.corpus_test_per_class,
                             seed=child_seed(seed, _CORPUS))
    train, test = harness.ensure_corpus(corpus)
    inputs = Inputs(
        train=mnist.stratified_subset(train, scale.per_class,
                                      seed=child_seed(seed, _SUBSET)),
        test=harness.fixed_test_subset(test, scale.test_subset),
        arch=nn.ArchConfig(num_classes=len(train.class_ids)),
    )
    if workload != "immune_classify":
        return inputs

    # train_variant evaluates its test set once at the end; one image per
    # class keeps that negligible here. The pools are full after one epoch,
    # but the train workloads' three make the features discriminative
    # enough that the withheld class is refused (and gets its pool) on every
    # seed, and the classify work per decision steadier between seeds.
    one_per_class = harness.fixed_test_subset(test, len(test.class_ids))
    _, params, expander = harness.train_variant(
        inputs.train, one_per_class, "cnn-ais", scale.per_class, seed, CFG,
        inputs.arch, epochs=scale.epochs, record_epochs=False)
    if not all(len(p.members) == p.capacity for p in expander.pools.values()):
        raise RuntimeError(f"antibody pools below capacity after {scale.epochs} epochs")
    path = work_dir / "pools.txt"
    clonal.save_pools(expander.pools, path)
    inputs.pools = clonal.load_pools(path)
    del inputs.pools[CFG.third_class]
    inputs.params = params
    order = np.random.default_rng(child_seed(seed, _ORDER)).permutation(
        len(inputs.test))[:scale.decisions]
    inputs.images, inputs.labels = inputs.test.images[order], inputs.test.labels[order]
    return inputs


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall_s: float
    ops: int                  # train batches or classify decisions
    failed: int
    op_s: list                # per-op seconds
    op_items: list            # originals per batch, or 1 per decision
    op_ref_s: list            # reference seconds after each op
    eval_s: list = field(default_factory=list)      # per chunk of images
    eval_n: list = field(default_factory=list)
    eval_ref_s: list = field(default_factory=list)
    quality: float = math.nan     # test error, or classify accuracy
    train_error: float = math.nan
    params: object = None
    samples: list = field(default_factory=list)   # decisions kept for checks
    decisions: list = field(default_factory=list)  # (Decision, pool members)

    def references(self) -> list[float]:
        return self.op_ref_s + self.eval_ref_s

    def scaled_ops(self, speedometer: speed.Speedometer) -> list[float]:
        return speedometer.scale_each(self.op_s, self.op_ref_s)

    def scaled_eval(self, speedometer: speed.Speedometer) -> list[float]:
        return speedometer.scale_each(self.eval_s, self.eval_ref_s)

    def scaled_wall_s(self, speedometer: speed.Speedometer) -> float:
        """Wall time less the reference probes, at nominal machine speed:
        ops and evaluation chunks scaled by the references around them, the
        small rest by the pass's median reference."""
        refs = self.references()
        rest = self.wall_s - sum(refs) - sum(self.op_s) - sum(self.eval_s)
        return (sum(self.scaled_ops(speedometer))
                + sum(self.scaled_eval(speedometer))
                + speedometer.scale(rest, refs))


def train_pass(workload: str, inputs: Inputs, seed: int, scale: Scale,
               speedometer: speed.Speedometer) -> Pass:
    clock = TrainClock(speedometer)
    with patched(clock.replacements()):
        rows, params, _ = harness.train_variant(
            inputs.train, inputs.test, VARIANT[workload], scale.per_class,
            seed, CFG, inputs.arch, epochs=scale.epochs, record_epochs=False)
    return Pass(traced=False, wall_s=0.0, ops=len(clock.batch_s),
                failed=clock.nonfinite_batches, op_s=clock.batch_s,
                op_items=clock.batch_n, op_ref_s=clock.batch_ref_s,
                eval_s=clock.eval_s, eval_n=clock.eval_n,
                eval_ref_s=clock.eval_ref_s, quality=rows[-1].test_error,
                train_error=rows[-1].train_error, params=params)


def classify_pass(inputs: Inputs, seed: int, scale: Scale,
                  speedometer: speed.Speedometer) -> Pass:
    pools = dict(inputs.pools)
    members = sum(len(p.members) for p in pools.values())
    rng = np.random.default_rng(child_seed(seed, _NEW_CLASS))
    every = max(1, len(inputs.labels) // max(1, scale.check_decisions))
    gaps, refs, decisions, samples = [], [], [], []
    correct = failed = 0
    mark = perf_counter()
    for k, (image, label) in enumerate(zip(inputs.images, inputs.labels)):
        feature, _ = nn.forward_features(inputs.params, image)
        decision = classifier.classify(feature, pools, CFG.matching_tau,
                                       c_min=CFG.c_min, raw_count=CFG.raw_count)
        label = int(label)
        refused_unknown = decision.no_match and label not in pools
        correct += refused_unknown or decision.predicted_class == label
        decisions.append((decision, members))
        if k % every == 0 or decision.no_match:
            samples.append((feature, dict(pools), decision))
        if refused_unknown:
            pools[label] = classifier.init_new_class(
                feature, label, CFG.clone_config(scale.per_class, seed), rng,
                existing=pools)
            members += len(pools[label].members)
        gaps.append(perf_counter() - mark)
        refs.append(speedometer.probe())
        mark = perf_counter()
    for decision, _ in decisions:
        values = list(decision.scores.values()) + list(decision.avidities.values())
        failed += not all(math.isfinite(v) for v in values)
    return Pass(traced=False, wall_s=0.0, ops=len(decisions), failed=failed,
                op_s=gaps, op_items=[1] * len(gaps), op_ref_s=refs,
                quality=correct / len(decisions), params=inputs.params,
                samples=samples, decisions=decisions)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def naive_features(params, image) -> np.ndarray:
    """The feature vector rebuilt from the brute-force ``*_naive`` kernels."""
    maps = []
    for m in range(params.num_maps):
        pre = params.conv_bias[m] + tensor.conv2d_valid_naive(
            image, params.conv_kernels[m])
        maps.append(tensor.maxpool2_naive(nn.scaled_tanh(pre))[0])
    flat = np.stack(maps).ravel()
    return nn.scaled_tanh(tensor.dense_naive(params.fc1_weights,
                                             params.fc1_bias, flat))


def recompute_decision(feature, pools, tau, c_min, raw_count):
    """Two-phase decision from one ``pool_affinities`` row per pool.

    Returns (predicted class or None, counts, borderline) where borderline
    says whether an affinity or a winning score is too close to a threshold
    or a rival to be decided at float precision."""
    counts, scores, borderline = {}, {}, False
    for label in sorted(pools):
        pool = pools[label]
        aff = clonal.pool_affinities(feature[None, :], pool)[0]
        matched = aff[aff >= tau]
        counts[label] = len(matched)
        borderline |= bool((np.abs(aff - tau) <= THRESHOLD_SLACK).any())
        if counts[label] >= c_min and pool.members:
            count_term = float(counts[label]) if raw_count \
                else counts[label] / len(pool.members)
            scores[label] = count_term + float(matched.mean())
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    if len(ranked) > 1:
        borderline |= scores[ranked[0]] - scores[ranked[1]] <= THRESHOLD_SLACK
    return (ranked[0] if ranked else None), counts, borderline


def decision_agrees(feature, pools, decision) -> bool:
    predicted, counts, borderline = recompute_decision(
        feature, pools, CFG.matching_tau, CFG.c_min, CFG.raw_count)
    return borderline or (predicted == decision.predicted_class
                          and counts == decision.counts
                          and decision.no_match == (predicted is None))


def run_checks(workload: str, inputs: Inputs, last: Pass, seed: int,
               scale: Scale) -> dict[str, bool]:
    """Correctness of the last pass's outputs; each entry must be True."""
    rng = np.random.default_rng(child_seed(seed, _CHECK))
    picks = rng.choice(len(inputs.test), size=min(scale.check_images,
                                                  len(inputs.test)),
                       replace=False)
    features_ok = losses_ok = True
    for i in picks:
        image, label = inputs.test.images[i], int(inputs.test.labels[i])
        feature, _ = nn.forward_features(last.params, image)
        features_ok &= bool(np.max(np.abs(feature - naive_features(
            last.params, image))) <= FEATURE_TOLERANCE)
        loss = nn.cross_entropy(nn.forward_output(last.params, feature), label)
        losses_ok &= math.isfinite(loss)
    checks = {
        "forward_features_match_naive": features_ok,
        "losses_finite": losses_ok,
        "params_finite": params_finite(last.params),
    }
    if workload == "immune_classify":
        checks["classify_matches_pool_affinities"] = all(
            decision_agrees(f, pools, d) for f, pools, d in last.samples)
    else:
        checks["final_train_error_below_bound"] = last.train_error < scale.max_train_error
    return checks


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values))


def windowed_rate(items, seconds, window: int) -> tuple[float, int]:
    """Median over consecutive windows of ``window`` ops of items/second."""
    rates = [sum(items[i:i + window]) / sum(seconds[i:i + window])
             for i in range(0, len(items) - window + 1, window)]
    if not rates:
        rates = [sum(items) / sum(seconds)]
    return _median(rates), len(rates)


def _metric(value, unit, n=None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def classifier_counts(decisions) -> tuple[int, int, int]:
    """(scalar affinity evaluations, (test feature, member) pairs, no-matches)
    implied by two-phase decisions: phase 1 scores every member of every
    pool, phase 2 scores the matches of each class that qualified."""
    evals = pairs = no_match = 0
    for decision, members in decisions:
        pairs += members
        evals += members + sum(decision.counts[c] for c in decision.avidities)
        no_match += decision.no_match
    return evals, pairs, no_match


def warning_counts(caught) -> dict[str, int]:
    modules = ("tensor", "nn", "clonal", "classifier")
    counts = dict.fromkeys(modules + ("other",), 0)
    for w in caught:
        if not issubclass(w.category, RuntimeWarning):
            continue
        path = Path(w.filename)
        counts[path.stem if path.parent.name == "clonalnet"
               and path.stem in modules else "other"] += 1
    return counts


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    report: dict            # every end-to-end metric that applies, own names
    contract: dict          # the BENCHMARK.json end-to-end metrics
    per_layer: dict
    checks: dict
    warnings: dict
    passes: list
    tracer: Tracer | None = None


def run(workload: str, seed: int, seconds: float, traced: bool,
        work_dir: Path, scale: Scale = Scale()) -> Result:
    """Set up, run passes for about ``seconds``, check, and measure.

    When ``traced``, untraced and traced passes alternate (at least one
    of each): the traced ones give the per-layer metrics and the
    difference between the two kinds, both at nominal machine speed, is
    the tracing overhead. In traced passes the speed reference is a span
    of its own, so that no layer's self time includes it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work_dir.mkdir(parents=True, exist_ok=True)
    setup_tracer, tracer = (Tracer(), Tracer()) if traced else (None, None)
    speedometer = speed.Speedometer(
        "affinity" if workload == "immune_classify" else "forward")
    # set-up renders digits and, for immune_classify, trains
    setup_meter = speed.Speedometer("forward")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        setup_s, inputs = [], None
        for _ in range(scale.setups):
            # release the previous set-up's inputs, so that peak memory is
            # that of one set-up
            inputs = None
            gc.collect()
            clock = SetupClock(setup_meter)
            with patched(traced_replacements(setup_tracer, setup_meter)
                         if traced else ()), patched(clock.replacements()):
                inputs = set_up(workload, seed, scale, work_dir)
            setup_s.append(clock.seconds())

        passes: list[Pass] = []
        crashed = False
        loop_start = perf_counter()
        while True:
            trace_this = traced and len(passes) % 2 == 1
            start = perf_counter()
            try:
                with patched(traced_replacements(tracer, speedometer)
                             if trace_this else ()), \
                        (tracer.span("harness") if trace_this else nullcontext()):
                    if workload == "immune_classify":
                        p = classify_pass(inputs, seed, scale, speedometer)
                    else:
                        p = train_pass(workload, inputs, seed, scale, speedometer)
            except Exception:   # a failed pass is reported, not fatal
                traceback.print_exc(file=sys.stderr)
                crashed = True
                break
            p.traced, p.wall_s = trace_this, perf_counter() - start
            passes.append(p)
            enough = len(passes) >= (2 if traced else 1)
            if enough and perf_counter() - loop_start + p.wall_s > seconds:
                break
        checks = run_checks(workload, inputs, passes[-1], seed, scale) \
            if passes else {}
    warned = warning_counts(caught)

    attempted = sum(p.ops for p in passes) + crashed
    failed = sum(p.failed for p in passes) + crashed \
        + sum(not ok for ok in checks.values())
    plain = [p for p in passes if not p.traced]
    report, contract, per_layer = {}, {}, {}
    if plain:   # no metrics when the first pass failed
        report, contract = end_to_end(workload, plain, setup_s, attempted,
                                      failed, speedometer)
    if len(plain) < len(passes):
        per_layer = layer_metrics(setup_tracer, tracer, passes, warned,
                                  scale.setups, speedometer)
    return Result(correct=not crashed and failed == 0 and bool(checks),
                  attempted=max(attempted, 1), failed=failed, report=report,
                  contract=contract, per_layer=per_layer, checks=checks,
                  warnings=warned, passes=passes, tracer=tracer)


def end_to_end(workload, plain: list[Pass], setup_s, attempted, failed,
               speedometer: speed.Speedometer):
    """Every end-to-end metric that applies to ``workload`` under its
    workload-specific name, and the BENCHMARK.json metrics drawn from
    them. Times are at nominal machine speed (see ``speed``)."""
    op_s = [s for p in plain for s in p.scaled_ops(speedometer)]
    items = [n for p in plain for n in p.op_items]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    references = [r for p in plain for r in p.references()]
    report = {
        "setup_s": _metric(_median(setup_s), "s", len(setup_s)),
        "run_s": _metric(_median([p.scaled_wall_s(speedometer) for p in plain]), "s",
                         len(plain)),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ops_failed_frac": _metric(failed / max(attempted, 1), "ratio", attempted),
        "reference_ms": _metric(_median(references) * 1e3, "ms", len(references)),
    }
    if workload == "immune_classify":
        rate, windows = windowed_rate(items, op_s, CLASSIFY_WINDOW_DECISIONS)
        latency = [s * 1e3 for s in op_s]
        report.update({
            "classify_per_s": _metric(rate, "1/s", windows),
            "classify_ms_p50": _metric(float(np.percentile(latency, 50)), "ms",
                                       len(latency)),
            "classify_ms_p90": _metric(float(np.percentile(latency, 90)), "ms",
                                       len(latency)),
            "classify_accuracy": _metric(plain[-1].quality, "ratio",
                                         plain[-1].ops),
        })
        throughput, p50 = "classify_per_s", "classify_ms_p50"
    else:
        rate, windows = windowed_rate(items, op_s, TRAIN_WINDOW_BATCHES)
        full = max(items)
        latency = [s * 1e3 for s, n in zip(op_s, items) if n == full]
        eval_s = [s for p in plain for s in p.scaled_eval(speedometer)]
        eval_rate, eval_windows = windowed_rate(
            [n for p in plain for n in p.eval_n], eval_s, EVAL_WINDOW_CHUNKS)
        report.update({
            "train_samples_per_s": _metric(rate, "1/s", windows),
            "train_batch_ms_p50": _metric(float(np.percentile(latency, 50)),
                                          "ms", len(latency)),
            "train_batch_ms_p90": _metric(float(np.percentile(latency, 90)),
                                          "ms", len(latency)),
            "eval_images_per_s": _metric(eval_rate, "1/s", eval_windows),
            "test_error": _metric(plain[-1].quality, "ratio",
                                  sum(plain[-1].eval_n)),
        })
        throughput, p50 = "train_samples_per_s", "train_batch_ms_p50"
    contract = {"setup_s": "setup_s", "run_s": "run_s",
                "throughput_per_s": throughput, "op_ms_p50": p50,
                "peak_rss_mb": "peak_rss_mb"}
    contract = {k: {"value": report[name]["value"], "unit": report[name]["unit"]}
                for k, name in contract.items()}
    return report, contract


# spans whose calls and self time are reported per traced pass
LAYER_SPANS = (
    "tensor.conv2d_valid", "tensor.maxpool2", "tensor.maxpool2_backward",
    "tensor.dense", "tensor.dense_backward",
    "nn.forward_features", "nn.forward_output", "nn.train_epoch",
    "nn.evaluate", "nn.sgd_step",
    "clonal.expand", "clonal.generate_clones", "clonal.pool_affinities",
    "clonal.update_memory", "classifier.classify",
)


def layer_metrics(setup_tracer: Tracer, tracer: Tracer, passes, warned,
                  setups: int, speedometer: speed.Speedometer) -> dict:
    """Per-layer metrics: run-phase values per traced pass, set-up values
    per set-up."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    counts = tracer.counts
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = _metric(tracer.calls[name] / n, "count")
        out[f"{name}.self_s"] = _metric(tracer.self_s.get(name, 0.0) / n, "s")
    proposed, accepted = counts["clonal.clones_proposed"], counts["clonal.clones_accepted"]
    evals, pairs, no_match = classifier_counts(
        [d for p in traced for d in p.decisions])
    decisions = sum(len(p.decisions) for p in traced)
    out.update({
        "tensor.conv_flops": _metric(counts["tensor.conv_flops"] / n, "flop-computed"),
        "clonal.pool_affinities.pairs": _metric(
            counts["clonal.pool_affinities.pairs"] / n, "count"),
        "clonal.clones_proposed": _metric(proposed / n, "count"),
        "clonal.clones_accepted": _metric(accepted / n, "count"),
        "clonal.accept_ratio": _metric(accepted / proposed if proposed else 0.0,
                                       "ratio"),
        "clonal.clones_per_original": _metric(
            accepted / counts["clonal.originals"]
            if counts["clonal.originals"] else 0.0, "clones/original"),
        "clonal.load_pools_s": _metric(
            setup_tracer.self_s.get("clonal.load_pools", 0.0) / setups, "s"),
        "classifier.init_new_class.self_s": _metric(
            tracer.self_s.get("classifier.init_new_class", 0.0) / n, "s"),
        "classifier.no_match_rate": _metric(
            no_match / decisions if decisions else 0.0, "ratio"),
        "classifier.affinity_evals": _metric(evals / n, "count"),
        "classifier.evals_per_pair": _metric(evals / pairs if pairs else 0.0,
                                             "evals/pair"),
        "mnist.load_dataset.self_s": _metric(
            setup_tracer.self_s.get("mnist.load_dataset", 0.0) / setups, "s"),
        "mnist.bytes_parsed": _metric(
            setup_tracer.counts["mnist.bytes_parsed"] / setups, "byte"),
        "synthdigits.write_corpus.self_s": _metric(
            setup_tracer.self_s.get("synthdigits.write_corpus", 0.0) / setups, "s"),
        "harness.self_s": _metric(tracer.self_s.get("harness", 0.0) / n, "s"),
        "trace.spans": _metric(len(tracer.start) / n, "count"),
        "trace.overhead_s": _metric(
            _median([p.scaled_wall_s(speedometer) for p in traced])
            - _median([p.scaled_wall_s(speedometer) for p in plain]), "s"),
    })
    for module, count in warned.items():
        out[f"warnings.{module}"] = _metric(count, "count")
    return out
