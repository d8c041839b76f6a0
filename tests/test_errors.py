"""The integer rule: every count, size, seed, capacity and class id a config
or call takes is an integer (not a bool) of at least its minimum, and any
other value raises ConfigurationError naming it before any work starts."""

import dataclasses

import numpy as np
import pytest

from clonalnet import classifier, clonal, gradcheck, harness, mnist, nn
from clonalnet import synthdigits
from clonalnet.errors import ConfigurationError, check_count

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
    ("batches", "batch_size", 1, lambda v: mnist.batches(DATA, v, seed=0)),
    ("make_dataset", "per_class", 1,
     lambda v: synthdigits.make_dataset(v, seed=0)),
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
