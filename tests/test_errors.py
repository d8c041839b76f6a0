"""The four rules of ``errors``, each checked where a config or call
applies it.

- Integers: every count, size, seed, capacity and class id is an integer
  (not a bool) of at least its minimum.
- Indices: every array of labels or clone parents is rectangular, of the
  rank its caller expects (one label per row), has an integer dtype, and
  has every entry in [0, bound) where there is a bound.
- Reals: every real-valued setting is a finite number (not a bool) in its
  range.
- Arrays: every array argument is rectangular, holds bools, integers or
  reals only, and has a rank its function accepts; it is used as float64.

A value that breaks a rule raises ConfigurationError, or DimensionError
for ragged rows and a wrong rank, naming it before any work starts."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonalnet import classifier, clonal, gradcheck, harness, mnist, nn
from clonalnet import synthdigits, tensor
from clonalnet.errors import (ConfigurationError, CorruptionError,
                              DimensionError, UndefinedAffinityError,
                              check_array, check_count, check_indices,
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


@pytest.mark.parametrize("per_class", bad_values(1))
def test_write_corpus_rejects_a_bad_class_size_before_writing(tmp_path,
                                                              per_class):
    out = tmp_path / "corpus"
    for sizes in ((per_class, 1), (1, per_class)):
        with pytest.raises(ConfigurationError, match="per_class"):
            synthdigits.write_corpus(out, *sizes)
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
            if field.type in (float, "float"):
                for value in [True, "0.5", None, float("nan"), float("inf"),
                              OUTSIDE.get(field.name, -1.0)]:
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


# ---------------------------------------------------------------------------
# the array rule
# ---------------------------------------------------------------------------

def test_a_float64_array_comes_back_as_it_is():
    values = np.ones((2, 3))
    assert check_array(values, "x", 2) is values
    assert check_array(values, "x", (1, math.inf)) is values
    assert check_array(values, "x") is values


@pytest.mark.parametrize("values, ndim", [
    ([[1, 2], [3, 4]], 2), ([True, False], 1), (np.arange(3, dtype=np.uint8), 1),
    (np.ones(3, np.float32), (1, 2)), (2.5, None), (np.ones((1, 1, 2)), (2, math.inf)),
    (np.ones(2, ">f8"), 1)])
def test_bools_integers_and_reals_come_back_as_float64(values, ndim):
    array = check_array(values, "x", ndim)
    assert array.dtype == np.float64
    assert np.array_equal(array, np.asarray(values, dtype=np.float64))


@pytest.mark.parametrize("values, ndim, error, message", [
    ([[1.0, 2.0], [3.0]], None, DimensionError,
     "x must be rectangular, got rows of different lengths"),
    ([1.0, [2.0]], 1, DimensionError, "x must be rectangular"),
    (np.ones(3), 2, DimensionError, "x must have 2 axes, got shape (3,)"),
    (np.ones((2, 2)), (0, 1), DimensionError,
     "x must have 0 to 1 axes, got shape (2, 2)"),
    (np.ones(3), (2, math.inf), DimensionError,
     "x must have 2 or more axes, got shape (3,)"),
    (["1", "2"], 1, ConfigurationError,
     "x must hold real numbers, got dtype <U1"),
    ([1.0, None], 1, ConfigurationError,
     "x must hold real numbers, got dtype object"),
    ([1.0, 2j], 1, ConfigurationError,
     "x must hold real numbers, got dtype complex128"),
    (np.array(["2020-01-01"], "datetime64[D]"), 1, ConfigurationError,
     "got dtype datetime64[D]"),
])
def test_other_arrays_are_rejected_naming_the_argument(values, ndim, error,
                                                       message):
    with pytest.raises(error, match=re.escape(message)):
        check_array(values, "x", ndim)


def test_index_arrays_of_another_rank_or_ragged_are_rejected():
    with pytest.raises(DimensionError,
                       match=re.escape("labels must have 1 axes, got shape "
                                       "(2, 1)")):
        check_indices(np.array([[0], [1]]), "label", 3, 1)
    with pytest.raises(DimensionError, match="labels must be rectangular"):
        check_indices([[0, 1], [2]], "label", 3)
    assert check_indices(np.int64(2), "label", 3, 0) == 2


RNG = np.random.default_rng


# (function, the name its error gives, a good value, a value of a rank the
# function refuses or None where it takes any, the error for that rank, and
# the call with the value)
ARRAY_CALLS = [
    ("Windows", "input", np.ones((4, 4)), np.ones(4), DimensionError,
     lambda v: tensor.Windows(v, (3, 3))),
    ("conv2d_valid", "input", np.ones((4, 4)), np.ones(4), DimensionError,
     lambda v: tensor.conv2d_valid(v, np.ones((3, 3)))),
    ("conv2d_valid", "kernel", np.ones((3, 3)), np.ones((1, 3, 3)),
     DimensionError, lambda v: tensor.conv2d_valid(np.ones((4, 4)), v)),
    ("conv2d_valid_naive", "input", np.ones((4, 4)), np.ones((1, 4, 4)),
     DimensionError, lambda v: tensor.conv2d_valid_naive(v, np.ones((3, 3)))),
    ("conv2d_valid_naive", "kernel", np.ones((3, 3)), np.ones(3),
     DimensionError, lambda v: tensor.conv2d_valid_naive(np.ones((4, 4)), v)),
    ("maxpool2", "input", np.ones((4, 4)), np.ones(4), DimensionError,
     tensor.maxpool2),
    ("maxpool2_naive", "input", np.ones((4, 4)), np.ones((1, 4, 4)),
     DimensionError, tensor.maxpool2_naive),
    ("maxpool2_backward", "grad_out", np.ones((2, 2)), np.ones(2),
     DimensionError,
     lambda v: tensor.maxpool2_backward(np.zeros((2, 2), np.int64), v)),
    ("dense", "weights", np.ones((2, 3)), np.ones(3), DimensionError,
     lambda v: tensor.dense(v, np.ones(2), np.ones(3))),
    ("dense", "bias", np.ones(2), np.ones((1, 2)), DimensionError,
     lambda v: tensor.dense(np.ones((2, 3)), v, np.ones(3))),
    ("dense", "x", np.ones(3), np.float64(1.0), DimensionError,
     lambda v: tensor.dense(np.ones((2, 3)), np.ones(2), v)),
    ("dense_naive", "weights", np.ones((2, 3)), np.ones(3), DimensionError,
     lambda v: tensor.dense_naive(v, np.ones(2), np.ones(3))),
    ("dense_naive", "bias", np.ones(2), np.ones((1, 2)), DimensionError,
     lambda v: tensor.dense_naive(np.ones((2, 3)), v, np.ones(3))),
    ("dense_naive", "x", np.ones(3), np.ones((1, 3)), DimensionError,
     lambda v: tensor.dense_naive(np.ones((2, 3)), np.ones(2), v)),
    ("dense_backward", "weights", np.ones((2, 3)), np.ones(3), DimensionError,
     lambda v: tensor.dense_backward(v, np.ones(3), np.ones(2))),
    ("dense_backward", "x", np.ones(3), np.float64(1.0), DimensionError,
     lambda v: tensor.dense_backward(np.ones((2, 3)), v, np.ones(2))),
    ("dense_backward", "grad_out", np.ones(2), np.float64(1.0),
     DimensionError,
     lambda v: tensor.dense_backward(np.ones((2, 3)), np.ones(3), v)),
    ("scaled_tanh", "x", np.ones(3), None, None, nn.scaled_tanh),
    ("forward_features", "image", IMAGES[0], IMAGES[0, 0], DimensionError,
     lambda v: nn.forward_features(SMALL_PARAMS, v)),
    ("predict", "image", IMAGES[0], IMAGES[None], DimensionError,
     lambda v: nn.predict(SMALL_PARAMS, v)),
    ("forward_output", "feature", FEATURES[0], np.float64(1.0),
     DimensionError, lambda v: nn.forward_output(SMALL_PARAMS, v)),
    ("cross_entropy", "probabilities", PROBS[0], PROBS, DimensionError,
     lambda v: nn.cross_entropy(v, 0)),
    # probabilities that do not fit the trace are a corrupt trace
    ("batch_gradients", "probabilities", PROBS, PROBS[0], CorruptionError,
     lambda v: nn.batch_gradients(SMALL_PARAMS, TRACE, v, LABELS)),
    ("batch_gradients", "clone features", FEATURES, FEATURES[0],
     DimensionError,
     lambda v: nn.batch_gradients(SMALL_PARAMS, TRACE, PROBS, LABELS, v,
                                  [0, 1, 2])),
    ("evaluate", "images", IMAGES, IMAGES[0], DimensionError,
     lambda v: nn.evaluate(SMALL_PARAMS, v, LABELS)),
    ("train_epoch", "images", IMAGES, IMAGES[0], DimensionError,
     lambda v: nn.train_epoch(SMALL_PARAMS, [(v, LABELS)], 0.1)),
    ("MemoryPool", "matrix", np.ones((1, 3)), np.ones((1, 1, 3)),
     DimensionError,
     lambda v: clonal.MemoryPool(0, 2, matrix=v, scores=np.ones(1))),
    ("MemoryPool", "scores", np.ones(1), np.ones((1, 1)), DimensionError,
     lambda v: clonal.MemoryPool(0, 2, matrix=np.ones((1, 3)), scores=v)),
    ("affinity_naive", "v1", np.ones(3), np.ones((1, 3)), DimensionError,
     lambda v: clonal.affinity_naive(v, np.ones(3))),
    ("affinity_naive", "v2", np.ones(3), np.ones((1, 3)), DimensionError,
     lambda v: clonal.affinity_naive(np.ones(3), v)),
    ("mutate", "v", np.ones(3), None, None,
     lambda v: clonal.mutate(v, 0.5, 0.1, RNG(0))),
    ("crossover", "v1", np.ones(3), None, None,
     lambda v: clonal.crossover(v, np.ones(3), RNG(0))),
    ("crossover", "v2", np.ones(3), None, None,
     lambda v: clonal.crossover(np.ones(3), v, RNG(0))),
    ("affinity_matrix", "queries", np.ones((1, 3)), np.ones((1, 1, 3)),
     DimensionError, lambda v: clonal.affinity_matrix(v, np.ones((2, 3)))),
    ("affinity_matrix", "references", np.ones((2, 3)), np.ones((1, 2, 3)),
     DimensionError, lambda v: clonal.affinity_matrix(np.ones((1, 3)), v)),
    ("pool_affinities", "features", np.ones((1, 3)), np.ones((1, 1, 3)),
     DimensionError, lambda v: clonal.pool_affinities(v, POOLS[0])),
    ("update_memory", "features", np.ones((1, 3)), np.ones(3),
     DimensionError, lambda v: clonal.update_memory(POOLS[0], v, [0.5])),
    ("update_memory", "scores", np.ones(1), np.float64(0.5), DimensionError,
     lambda v: clonal.update_memory(POOLS[0], np.ones((1, 3)), v)),
    ("generate_clones", "features", np.ones((1, 3)), np.ones(3),
     DimensionError,
     lambda v: clonal.generate_clones(v, np.ones(1), [0], POOLS, DEMO,
                                      RNG(0))),
    ("generate_clones", "scores", np.ones(1), np.ones((1, 1)),
     DimensionError,
     lambda v: clonal.generate_clones(np.ones((1, 3)), v, [0], POOLS, DEMO,
                                      RNG(0))),
    ("ClonalExpander", "features", FEATURES, FEATURES[0], DimensionError,
     lambda v: clonal.ClonalExpander(DEMO)(v, LABELS)),
    ("clonalg_run", "pattern", np.ones(4), None, None,
     lambda v: clonal.clonalg_run(v, 5, 2, DEMO, select_n=1)),
    ("classify", "test feature", np.ones(3), np.ones((1, 3)), DimensionError,
     lambda v: classifier.classify(v, POOLS, 0.5)),
    ("classify_batch", "test features", np.ones((1, 3)), np.ones(3),
     DimensionError, lambda v: classifier.classify_batch(v, POOLS, 0.5)),
    ("init_new_class", "test feature", np.ones(3), np.ones((1, 3)),
     DimensionError,
     lambda v: classifier.init_new_class(v, 1, DEMO, RNG(0), {})),
    ("quantize_pixels", "images", np.zeros((2, 2)), np.float64(0.5),
     DimensionError, mnist.quantize_pixels),
    ("serialize_idx_labels", "labels", np.array([0, 1]), np.array([[0, 1]]),
     DimensionError, mnist.serialize_idx_labels),
]


def with_first_entry(value, entry):
    """``value`` as nested lists with its first entry replaced."""
    rows = np.asarray(value).tolist()
    inner = rows
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = entry
    return rows


def bad_arrays(good, wrong_rank, rank_error):
    """(case, value, error) for each kind of array the rule refuses."""
    yield "ragged", [[0.0, 1.0], [0.0]], DimensionError
    yield "string", with_first_entry(good, "1"), ConfigurationError
    yield "None", with_first_entry(good, None), ConfigurationError
    yield "complex", np.asarray(good) + 1j, ConfigurationError
    if wrong_rank is not None:
        yield "rank", wrong_rank, rank_error


@pytest.mark.parametrize("name, call, value, error", [
    pytest.param(name, call, value, error, id=f"{function}.{name}-{case}")
    for function, name, good, wrong_rank, rank_error, call in ARRAY_CALLS
    for case, value, error in bad_arrays(good, wrong_rank, rank_error)])
def test_array_argument_rejected_naming_it(name, call, value, error):
    # the name opens the message, or follows the prefix of a batch or pool
    with pytest.raises(error, match=rf"(^|: ){re.escape(name)} "):
        call(value)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=f"{function}.{name}")
    for function, name, good, _, _, call in ARRAY_CALLS])
def test_array_call_accepts_its_good_value(call, good):
    # the table's good values are accepted, so each refusal above is the
    # rule's and not some other check's
    call(good)
    call(np.asarray(good).tolist())


def test_every_function_with_an_array_argument_is_in_the_table():
    functions = {function for function, *_ in ARRAY_CALLS}
    assert functions >= {
        "Windows", "conv2d_valid", "maxpool2", "maxpool2_backward", "dense",
        "dense_backward", "forward_features", "forward_output",
        "cross_entropy", "batch_gradients", "evaluate", "train_epoch",
        "MemoryPool", "affinity_matrix", "update_memory", "generate_clones",
        "ClonalExpander", "crossover", "mutate", "clonalg_run", "classify",
        "classify_batch", "init_new_class", "quantize_pixels"}


LEAVES = st.one_of(st.floats(-4, 4), st.integers(-3, 3), st.none(),
                   st.sampled_from(["", "1", "x"]),
                   st.complex_numbers(max_magnitude=4))
NESTED = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=16)
TYPED = (ConfigurationError, DimensionError, CorruptionError,
         UndefinedAffinityError)


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{function}.{name}")
    for function, name, _, _, _, call in ARRAY_CALLS])
@given(value=NESTED)
def test_nested_lists_give_a_result_or_a_typed_error(call, value):
    try:
        call(value)
    except TYPED:
        pass


# ---------------------------------------------------------------------------
# labels one per row, pool mappings, the learning rate
# ---------------------------------------------------------------------------

DIGITS = mnist.Dataset(np.zeros((3, 28, 28)), LABELS)

# (function, call with (n, 1) labels or clone parents, message)
COLUMN_CALLS = [
    ("evaluate", lambda v: nn.evaluate(SMALL_PARAMS, IMAGES, v),
     "labels must have 1 axes, got shape (3, 1)"),
    ("train_epoch", lambda v: nn.train_epoch(SMALL_PARAMS, [(IMAGES, v)], 0.1),
     "batch 1: labels must have 1 axes, got shape (3, 1)"),
    ("batch_gradients",
     lambda v: nn.batch_gradients(SMALL_PARAMS, TRACE, PROBS, v),
     "labels must have 1 axes, got shape (3, 1)"),
    ("batch_gradients.parents",
     lambda v: nn.batch_gradients(SMALL_PARAMS, TRACE, PROBS, LABELS,
                                  FEATURES, v),
     "clone parents must have 1 axes, got shape (3, 1)"),
    ("ClonalExpander", lambda v: clonal.ClonalExpander(DEMO)(FEATURES, v),
     "labels must have 1 axes, got shape (3, 1)"),
    ("train_variant",
     lambda v: harness.train_variant(
         mnist.Dataset(np.zeros((len(v), 28, 28)), v), DIGITS, "cnn", 1, 0,
         harness.ExperimentConfig(), nn.ArchConfig(), 1, False),
     "train labels must have 1 axes, got shape (3, 1)"),
]


@pytest.mark.parametrize("call, message", [
    pytest.param(call, message, id=function)
    for function, call, message in COLUMN_CALLS])
def test_labels_are_one_per_row(call, message):
    # evaluate used to compare each prediction with every label, and
    # returned error rates up to 4.0
    with pytest.raises(DimensionError, match=re.escape(message) + "$"):
        call(LABELS[:, None])


@pytest.mark.parametrize("function, call", [
    pytest.param(function, call, id=function)
    for function, call, _ in COLUMN_CALLS])
def test_ragged_labels_are_a_dimension_error(function, call):
    with pytest.raises(DimensionError, match="rectangular"):
        call([[0, 1], [2], [0]])


def test_cross_entropy_takes_one_probability_vector_and_one_label():
    with pytest.raises(DimensionError,
                       match=re.escape("probabilities must have 1 axes")):
        nn.cross_entropy(PROBS, 0)
    with pytest.raises(DimensionError,
                       match=re.escape("labels must have 0 axes")):
        nn.cross_entropy(PROBS[0], np.array([0]))
    assert nn.cross_entropy([0.5, 0.5], np.int64(1)) == -math.log(0.5)


def pool_of(label):
    return clonal.MemoryPool(label, 2, matrix=np.ones((1, 3)),
                             scores=np.ones(1))


@pytest.mark.parametrize("pools, message", [
    ({5: pool_of(0)}, r"pools\[5\] is not the MemoryPool of class 5"),
    ({0: pool_of(0), 1: pool_of(0)}, r"pools\[1\] is not"),
    ({0: "pool"}, r"pools\[0\] is not"),
    ({0: np.ones((1, 3))}, r"pools\[0\] is not"),
    ([pool_of(0)], "pools must be a dict, got list"),
], ids=["other-key", "one-pool-twice", "string", "array", "list"])
def test_save_pools_refuses_a_bad_mapping_before_writing(tmp_path, pools,
                                                         message):
    # {5: pool of class 0} read back as {0: ...}, and one pool under two
    # keys wrote a file that load_pools refuses
    path = tmp_path / "pools.txt"
    with pytest.raises(ConfigurationError, match=message):
        clonal.save_pools(pools, path)
    assert not path.exists()


@pytest.mark.parametrize("pools", [
    [pool_of(0)], {0: [pool_of(0)]}, {0: np.ones((1, 3))}, {0: "pool"},
    {0: pool_of(0), "a": pool_of(0)}, {3: pool_of(0)}],
    ids=["list", "list-value", "array-value", "string-value", "mixed-keys",
         "other-key"])
@pytest.mark.parametrize("batch", [False, True])
def test_classify_refuses_pools_that_are_not_a_dict_of_pools(pools, batch):
    # these raised TypeError (unhashable type, unorderable keys) or
    # AttributeError, or classified under the wrong key
    with pytest.raises(ConfigurationError, match="pools"):
        if batch:
            classifier.classify_batch(np.ones((1, 3)), pools, 0.5)
        else:
            classifier.classify(np.ones(3), pools, 0.5)


def test_a_decision_on_a_kept_stack_does_not_check_the_pools(monkeypatch):
    pools = {0: pool_of(0), 1: pool_of(1)}
    classifier.classify(np.ones(3), pools, 0.5)
    checked = []
    monkeypatch.setattr(clonal, "check_pools", checked.append)
    classifier.classify(np.ones(3), pools, 0.5)
    assert checked == []
    classifier.classify(np.ones(3), dict(pools), 0.5)
    assert checked == []   # the same pools: the stack is kept
    classifier.classify(np.ones(3), {0: pool_of(0)}, 0.5)
    assert len(checked) == 1


@pytest.mark.parametrize("rate", ["0.1", -1.0, True, None, float("nan"),
                                  float("inf"), np.bool_(True)])
def test_train_epoch_checks_the_learning_rate_before_any_batch(monkeypatch,
                                                               rate):
    # "0.1" raised UFuncTypeError after a forward pass; -1.0 and True trained
    def forward(*args):
        raise AssertionError("forward pass before the learning rate check")
    monkeypatch.setattr(nn, "forward_features", forward)
    with pytest.raises(ConfigurationError, match="learning_rate must be a "):
        nn.train_epoch(SMALL_PARAMS, [(IMAGES, LABELS)], rate)
