"""The program surface that the benchmark in ``perfbench/`` relies on.

The benchmark's own tests are not part of the default test run, so a change
that deleted or renamed something the benchmark wraps, patches or calls
would pass here and break only the benchmark. These tests name that
surface, as ``perfbench/workloads.py`` reads it, without importing the
benchmark.
"""

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
