"""The program surface that the benchmark in ``perfbench/`` relies on.

The benchmark's own tests are not part of the default test run, so a change
that deleted or renamed something the benchmark wraps, patches or calls
would pass here and break only the benchmark. These tests name that
surface, as ``perfbench/workloads.py`` reads it, without importing the
benchmark.
"""

import inspect

import numpy as np
import pytest

from clonalnet import classifier, clonal, harness, mnist, nn, synthdigits, tensor

# every (owner, attribute) the benchmark replaces with a traced or timed
# wrapper: its span sites, then the sites it counts or clocks
WRAPPED = [
    (nn, "conv2d_valid"),
    (nn, "maxpool2"),
    (nn, "maxpool2_backward"),
    (nn, "dense"),
    (nn, "dense_backward"),
    (nn, "forward_features"),
    (harness, "forward_features"),
    (nn, "forward_output"),
    (harness, "train_epoch"),
    (harness, "evaluate"),
    (nn, "sgd_step"),
    (clonal.ClonalExpander, "__call__"),
    (clonal, "generate_clones"),
    (clonal, "pool_affinities"),
    (clonal, "update_memory"),
    (clonal, "load_pools"),
    (classifier, "classify"),
    (classifier, "init_new_class"),
    (mnist, "load_dataset"),
    (harness, "load_dataset"),
    (synthdigits, "write_corpus"),
    (clonal, "clone_count"),
    (nn, "predict"),
    (synthdigits, "render_digit"),
]

# what the benchmark calls or builds without replacing it
CALLED = [
    (harness, "ExperimentConfig"),
    (harness, "ensure_corpus"),
    (harness, "fixed_test_subset"),
    (harness, "train_variant"),
    (mnist, "Dataset"),
    (mnist, "stratified_subset"),
    (nn, "ArchConfig"),
    (nn, "LayerStack"),
    (nn, "scaled_tanh"),
    (nn, "cross_entropy"),
    (clonal, "CloneConfig"),
    (clonal, "save_pools"),
    (clonal, "mutate"),
    (tensor, "conv2d_valid_naive"),
    (tensor, "maxpool2_naive"),
    (tensor, "dense_naive"),
]


@pytest.mark.parametrize("owner, attribute", WRAPPED + CALLED,
                         ids=[f"{getattr(owner, '__name__', owner)}.{name}"
                              for owner, name in WRAPPED + CALLED])
def test_name_resolves(owner, attribute):
    assert callable(getattr(owner, attribute))


def test_pools_built_from_antibodies_classify():
    # the benchmark builds pools from Antibody lists, reads their members
    # and classifies one feature at a time with keyword options
    rng = np.random.default_rng(3)
    pools = {label: clonal.MemoryPool(label, 4, [
        clonal.Antibody(rng.normal(size=5) + 3 * label, label, 0.0)
        for _ in range(4)]) for label in (0, 1)}
    assert [len(pool.members) for pool in pools.values()] == [4, 4]
    assert pools[1].members[0].class_label == 1
    feature = pools[1].members[0].feature
    decision = classifier.classify(feature, pools, 0.8, c_min=1,
                                   raw_count=False)
    assert decision.predicted_class == 1 and not decision.no_match


# the benchmark counts calls at the sites above and reads each count as a
# fixed amount of work (a conv's flops from its kernel and result, a chunk
# of evaluated images, a training batch, a clone proposal, a rendered
# digit), so the call patterns below are part of the surface too

def record(monkeypatch, owner, attribute):
    """Replace ``owner.attribute`` with a wrapper that appends
    ``(args, result)`` for each call to the returned list."""
    calls, original = [], getattr(owner, attribute)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result
    monkeypatch.setattr(owner, attribute, recording)
    return calls


ARCH = nn.ArchConfig(image_size=10, num_maps=3, kernel_size=3,
                     feature_width=6, num_classes=3)


def test_forward_features_makes_one_conv_per_kernel(monkeypatch):
    calls = record(monkeypatch, nn, "conv2d_valid")
    params = nn.init_params(0, ARCH)
    images = np.random.default_rng(0).normal(size=(5, 10, 10))
    nn.forward_features(params, images)
    assert len(calls) == ARCH.num_maps
    for args, result in calls:
        assert np.ndim(args[1]) == 2
        assert result.size == len(images) * ARCH.conv_out ** 2


def test_evaluate_makes_one_predict_per_chunk(monkeypatch):
    calls = record(monkeypatch, nn, "predict")
    params = nn.init_params(1, ARCH)
    n = 2 * nn.EVAL_CHUNK + 3
    rng = np.random.default_rng(1)
    nn.evaluate(params, rng.normal(size=(n, 10, 10)),
                rng.integers(0, ARCH.num_classes, size=n))
    assert [len(args[1]) for args, _ in calls] == [
        nn.EVAL_CHUNK, nn.EVAL_CHUNK, 3]


def test_train_epoch_makes_one_sgd_step_per_batch(monkeypatch):
    calls = record(monkeypatch, nn, "sgd_step")
    rng = np.random.default_rng(2)
    batches = [(rng.normal(size=(n, 10, 10)),
                rng.integers(0, ARCH.num_classes, size=n)) for n in (4, 4, 1)]
    nn.train_epoch(nn.init_params(2, ARCH), batches, 0.1,
                   clonal.ClonalExpander(clonal.CloneConfig(rng_seed=2)))
    assert len(calls) == len(batches)


def test_expander_counts_each_original_and_mutates_each_proposal(monkeypatch):
    counts = record(monkeypatch, clonal, "clone_count")
    mutations = record(monkeypatch, clonal, "mutate")
    expander = clonal.ClonalExpander(clonal.CloneConfig(rng_seed=3))
    rng = np.random.default_rng(3)
    originals = 0
    for n in (6, 5, 7):
        expander(rng.normal(size=(n, 8)), rng.integers(0, 3, size=n))
        originals += n
        assert len(counts) == originals
    assert sum(result for _, result in counts) > 0
    assert len(mutations) == sum(result for _, result in counts)


def test_write_corpus_renders_each_digit_once(monkeypatch, tmp_path):
    calls = record(monkeypatch, synthdigits, "render_digit")
    synthdigits.write_corpus(tmp_path, train_per_class=3, test_per_class=2)
    assert len(calls) == 10 * (3 + 2)


# the benchmark derives its seeds as below and passes them, with its fixed
# sizes, to the constructors and calls that check every count, size and
# seed; each value it passes must meet that integer rule

def child_seed(seed, purpose):
    return int(np.random.SeedSequence([seed, purpose]).generate_state(1)[0])


def test_the_benchmark_values_meet_the_integer_rule(corpus, tmp_path):
    seed = 1
    cfg = harness.ExperimentConfig()
    # the run seed, a derived one, and the largest a derived one can be
    for rng_seed in (seed, child_seed(seed, 4), 2**32 - 1):
        assert cfg.clone_config(50, rng_seed).rng_seed == rng_seed
    assert nn.ArchConfig(num_classes=10).num_classes == 10
    train, test = corpus
    assert len(mnist.stratified_subset(train, 50,
                                       seed=child_seed(seed, 2))) == 500
    assert len(harness.fixed_test_subset(test, 1500)) == 1500
    assert len(harness.fixed_test_subset(test, len(test.class_ids))) == 10
    synthdigits.write_corpus(tmp_path, 600, 150, seed=child_seed(seed, 1))
    rng = np.random.default_rng(seed)
    pool = clonal.MemoryPool(7, 5, [clonal.Antibody(rng.normal(size=6), 7,
                                                    0.0)])
    assert len(pool) == 1 and pool.capacity == 5


def test_the_benchmark_reads_its_classify_settings_from_a_config():
    # the benchmark passes ExperimentConfig().matching_tau, c_min and
    # raw_count to classify, deletes the pool of its third_class and builds
    # clone settings with clone_config; c_min and raw_count keep the
    # classifier's defaults, so the benchmark decides as the program does
    cfg = harness.ExperimentConfig()
    for name in ("matching_tau", "c_min", "raw_count", "third_class",
                 "clone_config"):
        assert hasattr(cfg, name)
    for classify in (classifier.classify, classifier.classify_batch):
        defaults = inspect.signature(classify).parameters
        assert cfg.c_min == defaults["c_min"].default
        assert cfg.raw_count == defaults["raw_count"].default
