"""The three rules of ``errors``, each checked where a config or call
applies it.

- Integers: every count, size, seed, capacity and class id is an integer
  (not a bool) of at least its minimum.
- Indices: every array of labels or clone parents has an integer dtype,
  with every entry in [0, bound) where there is a bound.
- Reals: every real-valued setting is a finite number (not a bool) in its
  range.

Any other value raises ConfigurationError naming it before any work
starts."""

import dataclasses
import math
import re

import numpy as np
import pytest

from clonalnet import classifier, clonal, gradcheck, harness, mnist, nn
from clonalnet import synthdigits
from clonalnet.errors import (ConfigurationError, check_count, check_indices,
                              check_real)

# the integer fields whose minimum is 0, not 1
FROM_ZERO = {"rng_seed", "third_class"}
# two-class labels that a third class of True (== 1) or 0 does not repeat
OTHER_FIELDS = {harness.ExperimentConfig: {"two_class_labels": (4, 5)}}


@pytest.mark.parametrize("value, low", [
    (0, 0), (1, 1), (7, 1), (np.int64(3), 1), (np.uint8(0), 0), (-2, -5)])
def test_integers_at_or_above_the_minimum_pass_through(value, low):
    assert check_count(value, "n", low) is value


@pytest.mark.parametrize("value", [
    2.5, 3.0, float("nan"), float("inf"), True, np.bool_(True),
    np.float64(3.0), "3", None, 0, -1])
def test_other_values_are_rejected_with_name_bound_and_value(value):
    with pytest.raises(ConfigurationError,
                       match="^size must be an integer >= 1, got "):
        check_count(value, "size")


def bad_values(low):
    """What every integer parameter with minimum ``low`` must refuse."""
    return [2.5, float("nan"), True, low - 1]


def integer_fields():
    for config in (nn.ArchConfig, clonal.CloneConfig,
                   harness.ExperimentConfig):
        for field in dataclasses.fields(config):
            # annotations are strings under postponed evaluation
            if field.type in (int, "int"):
                low = 0 if field.name in FROM_ZERO else 1
                for value in bad_values(low):
                    yield pytest.param(config, field.name, value,
                                       id=f"{config.__name__}.{field.name}"
                                          f"={value!r}")


@pytest.mark.parametrize("config, name, value", list(integer_fields()))
def test_integer_field_rejects_non_integers_and_values_below_its_minimum(
        config, name, value):
    with pytest.raises(ConfigurationError, match=name):
        config(**OTHER_FIELDS.get(config, {}), **{name: value})


def test_every_config_has_integer_fields():
    # a config whose fields the filter above misses would test nothing
    names = {p.values[0].__name__ for p in integer_fields()}
    assert names == {"ArchConfig", "CloneConfig", "ExperimentConfig"}


SMALL = nn.ArchConfig(image_size=10, num_maps=2, kernel_size=3,
                      feature_width=4, num_classes=3)
DATA = mnist.Dataset(np.zeros((6, 4, 4)), np.array([0, 1, 2] * 2))
POOLS = {0: clonal.MemoryPool(0, 2, matrix=np.ones((1, 3)),
                              scores=np.ones(1))}
DEMO = clonal.CloneConfig(memory_capacity=2)

# (function, the name its error gives, minimum, call with the value)
CALLS = [
    ("MemoryPool", "capacity", 0, lambda v: clonal.MemoryPool(0, v)),
    ("MemoryPool", "class_label", 0, lambda v: clonal.MemoryPool(v, 2)),
    ("init_params", "seed", 0, lambda v: nn.init_params(v, SMALL)),
    ("clonalg_run", "select_n", 1,
     lambda v: clonal.clonalg_run(np.ones(4), 5, 2, DEMO, select_n=v)),
    ("clonalg_run", "population_size", 1,
     lambda v: clonal.clonalg_run(np.ones(4), v, 2, DEMO, select_n=1)),
    ("clonalg_run", "generations", 1,
     lambda v: clonal.clonalg_run(np.ones(4), 5, v, DEMO, select_n=1)),
    ("check_instance", "seed", 0,
     lambda v: gradcheck.check_instance(v, SMALL, 1)),
    ("check_instance", "coords_per_array", 1,
     lambda v: gradcheck.check_instance(0, SMALL, coords_per_array=v)),
    ("run_gradient_audit", "num_instances", 1,
     lambda v: gradcheck.run_gradient_audit(v, SMALL, 1)),
    ("stratified_subset", "per_class", 1,
     lambda v: mnist.stratified_subset(DATA, v, seed=0)),
    ("stratified_subset", "seed", 0,
     lambda v: mnist.stratified_subset(DATA, 1, seed=v)),
    ("batches", "batch_size", 1, lambda v: mnist.batches(DATA, v, seed=0)),
    ("batches", "seed", 0, lambda v: mnist.batches(DATA, 2, seed=v)),
    ("make_dataset", "per_class", 1,
     lambda v: synthdigits.make_dataset(v, seed=0)),
    ("make_dataset", "seed", 0, lambda v: synthdigits.make_dataset(1, seed=v)),
    ("fixed_test_subset", "test subset", 1,
     lambda v: harness.fixed_test_subset(DATA, v)),
    ("classify_batch", "c_min", 1,
     lambda v: classifier.classify_batch(np.ones((1, 3)), POOLS, 0.5,
                                         c_min=v)),
]


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{function}.{name}={value!r}")
    for function, name, low, call in CALLS
    for value in bad_values(low)])
def test_integer_parameter_rejects_non_integers_and_values_below_its_minimum(
        name, call, value):
    with pytest.raises(ConfigurationError, match=name):
        call(value)


@pytest.mark.parametrize("seed", bad_values(0))
def test_write_corpus_rejects_a_bad_seed_before_writing(tmp_path, seed):
    out = tmp_path / "corpus"
    with pytest.raises(ConfigurationError, match="seed"):
        synthdigits.write_corpus(out, 1, 1, seed=seed)
    assert not out.exists()


# ---------------------------------------------------------------------------
# the index rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values, bound", [
    (np.array([0, 2, 1]), 3), (np.array([255], np.uint8), 256),
    (np.array([-4, 9], np.int32), None), (np.array(2), 3),
    (np.empty(0, np.intp), 0), (np.array([[1], [0]]), 2)])
def test_integer_arrays_in_range_pass_through(values, bound):
    assert check_indices(values, "label", bound) is values


@pytest.mark.parametrize("values, message", [
    ([True, False], "labels must be integers, got dtype bool"),
    (np.array([0.0, 1.0]), "labels must be integers, got dtype float64"),
    ([], "labels must be integers, got dtype float64"),
    (["0"], "labels must be integers, got dtype <U1"),
    ([0, 3, -1], r"labels hold a label outside \[0, 3\): label 3 is the first"),
    ([[0, 5], [-2, 1]], r"outside \[0, 3\): label 5 is the first"),
    (np.array([7], np.uint8), "label 7 is the first"),
])
def test_other_index_arrays_are_rejected(values, message):
    with pytest.raises(ConfigurationError, match=message):
        check_indices(values, "label", 3)


SMALL_PARAMS = nn.init_params(0, SMALL)
IMAGES = np.random.default_rng(0).normal(size=(3, 10, 10))
FEATURES, TRACE = nn.forward_features(SMALL_PARAMS, IMAGES)
PROBS = nn.forward_output(SMALL_PARAMS, FEATURES)
LABELS = np.array([0, 1, 2])

# (function, noun, bound, call with the index array); the hook has no
# upper bound, and a negative label there is a pool's class_label
INDEX_CALLS = [
    ("cross_entropy", "label", 3,
     lambda v: [nn.cross_entropy(PROBS[0], label) for label in v]),
    ("batch_gradients", "label", 3,
     lambda v: nn.batch_gradients(SMALL_PARAMS, TRACE, PROBS, v)),
    ("batch_gradients", "clone parent", 3,
     lambda v: nn.batch_gradients(SMALL_PARAMS, TRACE, PROBS, LABELS,
                                  FEATURES, v)),
    ("evaluate", "label", 3, lambda v: nn.evaluate(SMALL_PARAMS, IMAGES, v)),
    ("train_epoch", "label", 3,
     lambda v: nn.train_epoch(SMALL_PARAMS, [(IMAGES, v)], 0.1)),
    ("ClonalExpander", "label", None,
     lambda v: clonal.ClonalExpander(DEMO)(FEATURES, v)),
]
BAD_INDICES = [np.array([True, False, True]), np.array([0.0, 1.0, 2.0]),
               np.array([1, -1, 3]), np.array([0, 5, -2])]


@pytest.mark.parametrize("noun, bound, call, values", [
    pytest.param(noun, bound, call, values,
                 id=f"{function}.{noun}={values.tolist()}")
    for function, noun, bound, call in INDEX_CALLS
    for values in BAD_INDICES])
def test_index_array_rejected_naming_its_first_bad_entry(noun, bound, call,
                                                         values):
    if values.dtype.kind not in "iu":
        message = f"{noun}s must be integers, got dtype {values.dtype}"
    elif bound is None:
        first = values[values < 0][0]
        message = f"class_label must be an integer >= 0, got {first}"
    else:
        first = values[(values < 0) | (values >= bound)][0]
        message = (f"{noun}s hold a {noun} outside [0, {bound}): "
                   f"{noun} {first} is the first")
    with pytest.raises(ConfigurationError, match=re.escape(message) + "$"):
        call(values)


# ---------------------------------------------------------------------------
# the real rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, low, high", [
    (0, 0, 1), (1, 0, 1), (0.5, 0, 1), (np.float32(0.25), 0, 1),
    (np.int64(3), 0, math.inf), (1e300, 0, math.inf), (-2.5, -5, 0)])
def test_reals_in_range_pass_through(value, low, high):
    assert check_real(value, "x", low, high) is value


@pytest.mark.parametrize("value", [
    True, np.bool_(False), "0.5", None, float("nan"), float("inf"),
    float("-inf"), 1.5, -0.1, np.float64(2.0), 0.5j, [0.5]])
def test_other_reals_are_rejected_with_name_range_and_value(value):
    with pytest.raises(ConfigurationError, match=re.escape(
            "x must be a finite real number in [0, 1], got ")):
        check_real(value, "x", 0, 1)


def test_infinity_fails_an_unbounded_range():
    with pytest.raises(ConfigurationError, match="x must be a finite"):
        check_real(math.inf, "x", 0, math.inf)


# a value outside each real field's range; the rest go below 0
OUTSIDE = {"alpha": 0.0, "tau": 1.5, "tau_match": 1.5}


def real_fields():
    for config in (clonal.CloneConfig, harness.ExperimentConfig):
        for field in dataclasses.fields(config):
            # annotations are strings under postponed evaluation
            if field.type in (float, "float", "float | None"):
                for value in [True, "0.5", None, float("nan"), float("inf"),
                              OUTSIDE.get(field.name, -1.0)]:
                    # None is the legal tau_match that falls back to tau
                    if value is None and "None" in field.type:
                        continue
                    yield pytest.param(config, field.name, value,
                                       id=f"{config.__name__}.{field.name}"
                                          f"={value!r}")


@pytest.mark.parametrize("config, name, value", list(real_fields()))
def test_real_field_rejects_non_reals_and_values_outside_its_range(
        config, name, value):
    with pytest.raises(ConfigurationError, match=name):
        config(**{name: value})


def test_every_real_field_is_covered():
    names = {(p.values[0].__name__, p.values[1]) for p in real_fields()}
    assert names == {(config, name) for config in ("CloneConfig",
                                                   "ExperimentConfig")
                     for name in ("eta", "alpha", "tau", "sigma")} | {
        ("ExperimentConfig", "learning_rate"),
        ("ExperimentConfig", "tau_match")}


@pytest.mark.parametrize("tau_match", ["0.8", True, None, np.bool_(True)])
def test_classify_rejects_a_tau_match_that_is_not_a_real(tau_match):
    # "0.8" and None used to raise a bare TypeError, and True to match at 1
    with pytest.raises(ConfigurationError, match="tau_match"):
        classifier.classify(np.ones(3), POOLS, tau_match=tau_match)
