#!/usr/bin/env python3
"""Print SHA-256 digests of fixed training runs, to compare two source trees.

Every run reads the default synthetic corpus as the command line does: the
script writes it once with ``write_corpus`` into a temporary directory,
digests its four IDX files, and loads it back through ``ensure_corpus``.
Each cell trains on a stratified subset of that training set, drawn as
the size sweep draws it, and is evaluated on ``fixed_test_subset(test,
100)``, ten images per class.

Trains fixed ``cnn`` and ``cnn-ais`` cells and prints one digest per cell
for the final parameters (raw float64 bytes), the per-epoch error rows and
the ``save_pools`` file. For the ``cnn-ais per_class=25`` cell it also
digests ``classify``'s decisions on every test image against that cell's
ten pools, and again with the configured third class withheld as
perfbench's ``immune_classify`` does.
One more ``cnn-ais`` cell trains at the scale of perfbench's ``train_ais``
(50 images per class for 3 epochs, 189 batches) and gets one digest of
its parameters, rows and pools, and one more of that cell's
``forward_features`` bytes for each test image alone and for the whole
test set as one stack, with ``evaluate``'s error on it.
It also digests the two-class application's decisions on the corpus and
the clonal-selection demo for seeds 1-3. Last, it runs tiny
``size-sweep``, ``epoch-curve``, ``two-class`` and ``clonalg-demo``
commands through ``cli.main`` into a temporary directory and digests every
file each writes, and its stdout with that directory's path taken out. A
last line digests the affinity tables ``affinity_matrix`` and
``pool_affinities`` give, and the decisions of ``classify_batch``, for one
query row and a batch of them against three fixed pools; the batch holds a
zero row, and both sides hold rows of 1e-200 and 1e200 scale, whose
squared norms leave the normal float range. Two trees that print the same
lines train bit-identically on these cells and write the same artifacts.
BLAS is limited to one thread before numpy loads, so summation order does
not depend on the machine's core count.

To compare two trees, run one copy of this script against each tree's
``src``, so that only the package differs between the runs:

    PYTHONPATH=before/src python scripts/train_fingerprint.py > before.txt
    PYTHONPATH=after/src python scripts/train_fingerprint.py > after.txt
    diff before.txt after.txt
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from clonalnet import cli, harness, synthdigits  # noqa: E402
from clonalnet.classifier import (classify, classify_batch,  # noqa: E402
                                  init_new_class)
from clonalnet.clonal import (MemoryPool, affinity_matrix,  # noqa: E402
                              pool_affinities, save_pools)
from clonalnet.mnist import stratified_subset  # noqa: E402
from clonalnet.nn import ArchConfig, evaluate, forward_features  # noqa: E402

# (variant, per-class size, seed, epochs)
CELLS = [(variant, per_class, seed, epochs)
         for variant in harness.VARIANTS
         for per_class, seed, epochs in ((10, 1, 3), (25, 2, 2))]
# (per-class size, seed, epochs) of the cnn-ais cell at train_ais's scale
BENCH_CELL = (50, 4, 3)
# tiny runs of every experiment subcommand, each into its own directory
COMMANDS = [
    ["size-sweep", "--sizes", "2,3", "--seeds", "2,1", "--epochs", "2"],
    ["epoch-curve", "--seeds", "2,1", "--epochs", "2", "--per-class", "3"],
    ["two-class", "--epochs", "2", "--seeds", "1"],
    ["clonalg-demo", "--seeds", "3,1", "--pop", "12", "--generations", "8",
     "--select-n", "4"],
]
TINY_CONFIG = ("test_subset = 20\nbatch_size = 4\n"
               "two_class_train = 3\ntwo_class_test = 10\n")
# spelled out rather than read from the program, so that trees whose
# parameter type lists its arrays differently print comparable digests
PARAM_ARRAYS = ("conv_kernels", "conv_bias", "fc1_weights", "fc1_bias",
                "out_weights", "out_bias")


def digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()[:16]


def pools_bytes(pools) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pools.txt"
        save_pools(pools, path)
        return path.read_bytes()


def pool_decisions(params, pools, test, cfg, per_class, seed) -> list:
    """``classify``'s decision on each test image in turn; a refused image
    of a class without a pool seeds one. Returns the decisions and the
    final pool count."""
    pools = dict(pools)
    rng = np.random.default_rng(seed)
    decisions = []
    for image, label in zip(test.images, test.labels.tolist()):
        feature, _ = forward_features(params, image)
        decision = classify(feature, pools, cfg.matching_tau,
                            c_min=cfg.c_min, raw_count=cfg.raw_count)
        decisions.append(decision)
        if decision.no_match and label not in pools:
            pools[label] = init_new_class(
                feature, label, cfg.clone_config(per_class, seed), rng,
                existing=pools)
    return [decisions, len(pools)]


def affinity_digest() -> str:
    """The affinity tables and decisions of the fixed queries and pools."""
    rng = np.random.default_rng(2027)
    members = rng.normal(size=(3, 5, 8))
    members[1, 2] *= 1e-200
    members[2, 4] *= 1e200
    pools = {label: MemoryPool(label, 5, matrix=rows, scores=np.zeros(5))
             for label, rows in enumerate(members)}
    stack = members.reshape(-1, 8)
    queries = rng.normal(size=(6, 8))
    queries[1] = 0.0
    queries[3] *= 1e-200
    queries[4] *= 1e200
    chunks = []
    for batch in (queries[:1], queries):
        chunks.append(affinity_matrix(batch, stack).tobytes())
        chunks += [pool_affinities(batch, pool).tobytes()
                   for pool in pools.values()]
        chunks.append(classify_batch(batch, pools, tau_match=0.5))
    return digest(*chunks)


def main() -> int:
    cfg = harness.ExperimentConfig()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = synthdigits.write_corpus(tmp)
        files = (synthdigits.TRAIN_IMAGES, synthdigits.TRAIN_LABELS,
                 synthdigits.TEST_IMAGES, synthdigits.TEST_LABELS)
        corpus_bytes = ((corpus / name).read_bytes() for name in files)
        print(f"default corpus files {digest(*corpus_bytes)}")
        train, test = harness.ensure_corpus(corpus)
    test = harness.fixed_test_subset(test, 100)
    arch = ArchConfig(num_classes=len(train.class_ids))
    for variant, per_class, seed, epochs in CELLS:
        subset = stratified_subset(
            train, per_class, seed=harness.derived_seed(seed, per_class, 5))
        rows, params, expander = harness.train_variant(
            subset, test, variant, per_class, seed, cfg, arch,
            epochs=epochs, record_epochs=True)
        name = f"{variant} per_class={per_class} seed={seed} epochs={epochs}"
        arrays = (getattr(params, a).tobytes() for a in PARAM_ARRAYS)
        print(f"{name} params {digest(*arrays)}")
        print(f"{name} rows   {digest(rows)}")
        if expander is not None:
            print(f"{name} pools  {digest(pools_bytes(expander.pools))}")
        if variant == "cnn-ais" and per_class == 25:
            withheld = {label: pool for label, pool in expander.pools.items()
                        if label != cfg.third_class}
            runs = [pool_decisions(params, pools, test, cfg, per_class, seed)
                    for pools in (expander.pools, withheld)]
            print(f"{name} ten-pool decisions {digest(runs)}")

    per_class, seed, epochs = BENCH_CELL
    subset = stratified_subset(
        train, per_class, seed=harness.derived_seed(seed, per_class, 5))
    rows, params, expander = harness.train_variant(
        subset, test, "cnn-ais", per_class, seed, cfg, arch, epochs=epochs,
        record_epochs=True)
    arrays = [getattr(params, a).tobytes() for a in PARAM_ARRAYS]
    name = f"cnn-ais per_class={per_class} seed={seed} epochs={epochs}"
    print(f"{name} state "
          f"{digest(*arrays, rows, pools_bytes(expander.pools))}")
    alone = [forward_features(params, image)[0].tobytes()
             for image in test.images]
    stacked, _ = forward_features(params, test.images)
    error = evaluate(params, test.images, test.labels)
    print(f"{name} features {digest(*alone, stacked.tobytes(), error)}")

    two = harness.run_two_class_application(
        harness.ExperimentConfig(two_class_test=20), data=(train, test))
    decisions = digest(two.decisions, two.third_nomatch,
                       two.third_recognized_after)
    print(f"two-class decisions {decisions}")
    print(f"two-class pools     {digest(pools_bytes(two.pools))}")

    for seed in (1, 2, 3):
        demo = harness.run_clonalg_demo(generations=60, seed=seed)
        state = digest(demo.population.tobytes(), demo.memory_vectors.tobytes(),
                       demo.memory_scores.tobytes(), demo.history)
        print(f"clonalg-demo seed={seed} {state}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = synthdigits.write_corpus(tmp / "data", 30, 10)
        (tmp / "tiny.cfg").write_text(TINY_CONFIG)
        for argv in COMMANDS:
            out = tmp / argv[0]
            if argv[0] != "clonalg-demo":
                argv = argv + ["--config", str(tmp / "tiny.cfg"),
                               "--data-dir", str(data)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cli.main(argv + ["--out", str(out)])
            text = stdout.getvalue().replace(str(out), "OUT")
            print(f"cli {argv[0]} stdout {digest(text)}")
            for path in sorted(out.iterdir()):
                print(f"cli {argv[0]} {path.name} {digest(path.read_bytes())}")

    print(f"affinity tables {affinity_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
