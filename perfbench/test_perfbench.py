"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from clonalnet import classifier, clonal  # noqa: E402
from spans import Tracer, patched  # noqa: E402

TINY = workloads.Scale(corpus_train_per_class=12, corpus_test_per_class=6,
                       per_class=4, epochs=2, test_subset=20, decisions=20,
                       setups=1, check_images=1, check_decisions=4,
                       max_train_error=1.0)


def traced_run(workload, tmp_path):
    return workloads.run(workload, seed=3, seconds=0.01, traced=True,
                         work_dir=tmp_path, scale=TINY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_add_up_to_wall_time(workload, tmp_path):
    result = traced_run(workload, tmp_path)
    assert result.correct, result.checks
    traced = [p for p in result.passes if p.traced]
    assert len(traced) == 1
    run_spans = [k for k, m in result.per_layer.items()
                 if k.endswith(".self_s") and m["unit"] == "s"
                 and not k.startswith(("mnist.", "synthdigits."))]
    self_total = sum(result.per_layer[k]["value"] for k in run_spans) \
        + result.tracer.self_s["speed.reference"]
    root = result.tracer.root_seconds("harness")
    assert self_total == pytest.approx(root, rel=1e-9)
    # the untraced remainder is only the patching around the root span
    assert 0.0 <= traced[0].wall_s - root < 0.05 * traced[0].wall_s


def test_control_workload_has_no_clonal_or_classifier_work(tmp_path):
    result = traced_run("train_cnn", tmp_path)
    touched = {k: m["value"] for k, m in result.per_layer.items()
               if k.startswith(("clonal.", "classifier.")) and m["value"]}
    assert touched == {}
    assert result.per_layer["tensor.conv2d_valid.calls"]["value"] > 0


def test_affinity_evals_match_direct_recount(monkeypatch):
    rng = np.random.default_rng(0)
    pools = {label: clonal.MemoryPool(label, 5, [
        clonal.Antibody(rng.normal(size=6), label, 0.0)
        for _ in range(3 + label)]) for label in range(3)}
    calls = []
    scalar = classifier.affinity
    monkeypatch.setattr(classifier, "affinity",
                        lambda a, b: calls.append(1) or scalar(a, b))
    decisions = []
    for tau, c_min in ((0.0, 1), (0.5, 2), (0.999, 1)):
        for _ in range(4):
            d = classifier.classify(rng.normal(size=6), pools, tau, c_min=c_min)
            decisions.append((d, sum(len(p.members) for p in pools.values())))
    evals, pairs, no_match = workloads.classifier_counts(decisions)
    assert evals == len(calls)
    assert pairs == 12 * len(decisions)
    assert no_match == sum(d.no_match for d, _ in decisions) > 0


def test_clone_counts_match_direct_recount(tmp_path):
    rng = np.random.default_rng(1)
    expander = clonal.ClonalExpander(clonal.CloneConfig(
        eta=5.0, tau=0.6, sigma=0.3, memory_capacity=6, rng_seed=2))
    mutations = []
    mutate = clonal.mutate
    tracer = Tracer()
    returned = 0
    with patched(workloads.span_replacements(tracer)
                 + [(clonal, "mutate",
                     lambda *a: mutations.append(1) or mutate(*a))]):
        for _ in range(4):
            features = rng.normal(size=(6, 5))
            returned += len(expander(features, np.array([0, 0, 0, 1, 1, 1])))
    assert returned > 0
    assert tracer.counts["clonal.clones_accepted"] == returned
    assert tracer.counts["clonal.clones_proposed"] == len(mutations)
    assert tracer.counts["clonal.originals"] == 24


def test_decision_recount_flags_a_wrong_decision():
    rng = np.random.default_rng(4)
    pools = {label: clonal.MemoryPool(label, 4, [
        clonal.Antibody(rng.normal(size=5) + 3 * label, label, 0.0)
        for _ in range(4)]) for label in range(2)}
    feature = rng.normal(size=5) + 3
    decision = classifier.classify(feature, pools, 0.8)
    assert workloads.decision_agrees(feature, pools, decision)
    decision.counts[0] += 1
    assert not workloads.decision_agrees(feature, pools, decision)


def test_command_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_cnn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
