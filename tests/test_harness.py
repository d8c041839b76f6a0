"""Experiment harness: configuration plumbing, deterministic artifacts,
and small end-to-end runs of each experiment shape."""

import dataclasses
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonalnet import cli, harness, nn, synthdigits
from clonalnet.clonal import ClonalgResult
from clonalnet.errors import ConfigurationError, DivergenceError
from clonalnet.gradcheck import check_instance, run_gradient_audit
from clonalnet.harness import (
    CSV_HEADER,
    ExperimentConfig,
    SweepResult,
    config_from_mapping,
    curve_series,
    derived_seed,
    emit_csv,
    emit_svg_lineplot,
    ensure_corpus,
    fixed_test_subset,
    load_config,
    parse_config_file,
    run_epoch_curve,
    run_size_sweep,
    run_two_class_application,
    sweep_summary_series,
    train_variant,
)
from clonalnet.mnist import (Dataset, idx_image_header, quantize_pixels,
                             serialize_idx_labels, stratified_subset)
from clonalnet.nn import ArchConfig

# settings small enough that a full training cell takes well under a second
TINY = dict(sizes=(2,), seeds=(1,), epochs=1, test_subset=20,
            learning_rate=0.05, batch_size=4)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 5  # short run\n\n# comment only\nsizes=10,25\n")
    assert parse_config_file(path) == {"epochs": "5", "sizes": "10,25"}


def test_parse_config_file_rejects_bare_token(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(path)


def test_parse_config_file_rejects_a_repeated_key(tmp_path):
    # the last of the two used to win silently
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 3\n# again\n\nepochs = 4\n")
    with pytest.raises(ConfigurationError, match="line 4: repeated key 'epochs'"):
        parse_config_file(path)


def test_parse_config_file_rejects_undecodable_byte(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"epochs = 5\n\xff\n")
    with pytest.raises(ConfigurationError, match="run.cfg: undecodable"):
        parse_config_file(path)


def test_mapping_coerces_field_types():
    cfg = config_from_mapping({
        "sizes": "5,10", "seeds": "1,2", "epochs": "3",
        "learning_rate": "0.2", "raw_count": "true", "tau_match": "0.7",
        "variant": "cnn",
    })
    assert cfg.sizes == (5, 10)
    assert cfg.seeds == (1, 2)
    assert cfg.epochs == 3
    assert cfg.learning_rate == 0.2
    assert cfg.raw_count is True
    assert cfg.tau_match == 0.7
    assert cfg.variant == "cnn"


def test_mapping_rejects_unknown_key():
    # the last three were settings that nothing set to another value
    for key in ("learninq_rate", "rate_cap", "crossover_prob",
                "memory_factor"):
        with pytest.raises(ConfigurationError, match=f"unknown .* '{key}'"):
            config_from_mapping({key: "1"})


@pytest.mark.parametrize("text, value", [
    ("true", True), ("YES", True), ("1", True),
    ("False", False), ("no", False), ("0", False),
])
def test_mapping_bool_words(text, value):
    assert config_from_mapping({"raw_count": text}).raw_count is value


@pytest.mark.parametrize("key, text", [
    ("raw_count", "ture"),
    ("raw_count", ""),
    ("sizes", ""),
    ("seeds", "1,,2"),
    ("epochs", "five"),
    ("learning_rate", "fast"),
    ("tau_match", "high"),
    # "none" and "" used to mean "fall back to tau"
    ("tau_match", "none"),
    ("tau_match", ""),
    ("learning_rate", "nan"),
    ("eta", "-1"),
    ("eta", "inf"),
    ("alpha", "inf"),
    ("sigma", "inf"),
    ("learning_rate", "inf"),
])
def test_mapping_bad_value_names_key(key, text):
    with pytest.raises(ConfigurationError, match=key):
        config_from_mapping({key: text})


def test_overrides_beat_file_and_none_is_ignored(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs=5\nlearning_rate=0.5\n")
    cfg = load_config(path, {"epochs": "2", "out_dir": None})
    assert cfg.epochs == 2
    assert cfg.learning_rate == 0.5
    assert cfg.out_dir == "out"


@pytest.mark.parametrize("bad", [
    {"variant": "mlp"},
    {"sizes": ()},
    {"sizes": (0, 10)},
    {"seeds": ()},
    {"epochs": 0},
    {"curve_epochs": 0},
    {"curve_epochs": -1},
    {"two_class_labels": (3, 3)},
    {"third_class": 1},
    {"learning_rate": -0.1},
    {"learning_rate": float("nan")},
    {"c_min": 0},
    {"tau_match": 1.5},
    {"tau_match": -0.1},
    {"tau_match": float("nan")},
    {"eta": -1.0},
    {"alpha": 0.0},
    {"tau": 1.5},
    {"sigma": float("nan")},
    {"eta": float("nan")},
    {"tau": float("nan")},
    {"batch_size": 0},
    {"test_subset": 0},
    {"test_subset": -5},
    {"curve_per_class": 0},
    {"two_class_train": 0},
    {"two_class_test": 0},
    {"sizes": (10, 10)},
    {"seeds": (1, 1)},
    {"seeds": (-1,)},
    {"eta": float("inf")},
    {"alpha": float("inf")},
    {"sigma": float("inf")},
    {"learning_rate": float("inf")},
    {"sizes": (2.5,)},
    {"sizes": (float("nan"), 10)},
    {"sizes": (True,)},
    {"seeds": (1.5,)},
    {"seeds": (np.bool_(True),)},
    {"two_class_labels": (0, 2.5)},
    {"two_class_labels": (-1, 1)},
    {"two_class_labels": (0,)},
    {"epochs": np.float64(3.0)},
    {"batch_size": "8"},
    {"test_subset": None},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**bad)


def test_matching_tau_override():
    assert ExperimentConfig(tau=0.55, tau_match=0.9).matching_tau == 0.9


def test_clone_config_scales_memory_with_class_size():
    cc = ExperimentConfig().clone_config(25, rng_seed=7)
    assert cc.memory_capacity == 75
    assert cc.rng_seed == 7


def test_derived_seed_is_stable():
    # pinned: a silent change here would reshuffle every experiment stream
    assert derived_seed(1, 10, 5) == 1147677565
    assert derived_seed(3, 2, 7) == 796109925
    assert derived_seed(1, 10, 5) != derived_seed(2, 10, 5)
    assert derived_seed(1, 10, 5) != derived_seed(1, 10, 6)


def test_ensure_corpus_refuses_a_partial_directory(tmp_path):
    # a directory with some of the four files is not overwritten
    images = tmp_path / synthdigits.TRAIN_IMAGES
    images.write_bytes(idx_image_header(5, 28, 28)
                       + quantize_pixels(np.zeros((5, 28, 28))).tobytes())
    assert images.stat().st_size == 3936
    with pytest.raises(ConfigurationError, match=synthdigits.TEST_LABELS):
        ensure_corpus(tmp_path)
    assert images.stat().st_size == 3936
    assert sorted(p.name for p in tmp_path.iterdir()) == [images.name]


def test_ensure_corpus_writes_only_into_an_empty_directory(tmp_path,
                                                           corpus_dir):
    names = (synthdigits.TRAIN_IMAGES, synthdigits.TRAIN_LABELS,
             synthdigits.TEST_IMAGES, synthdigits.TEST_LABELS)
    ensure_corpus(tmp_path)
    for name in names:
        assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes()
    # with all four present it loads them and writes nothing
    stamps = [(tmp_path / name).stat().st_mtime_ns for name in names]
    train, test = ensure_corpus(tmp_path)
    assert (len(train), len(test)) == (6000, 1500)
    assert [(tmp_path / name).stat().st_mtime_ns for name in names] == stamps


def test_fixed_test_subset_is_deterministic(corpus):
    _, test = corpus
    a = fixed_test_subset(test, 100)
    b = fixed_test_subset(test, 100)
    assert len(a.images) == 100
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert np.all(np.bincount(a.labels, minlength=10) == 10)


@pytest.mark.parametrize("total", [5, 25, 0, -10])
def test_fixed_test_subset_rejects_totals_off_the_class_count(corpus, total):
    # 5 used to evaluate 10 images and 25 evaluate 20 on the 10 classes
    with pytest.raises(ConfigurationError, match=f"{total} images .* 10 classes"):
        fixed_test_subset(corpus[1], total)


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def csv_rows(path):
    """The rows of an emitted results table, read back with split(",")."""
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        variant, size, seed, epoch, train, test = line.split(",")
        rows.append(SweepResult(variant, int(size), int(seed), int(epoch),
                                float(train), float(test)))
    return rows


def test_csv_round_trip_and_ordering(tmp_path):
    rows = [
        SweepResult("cnn-ais", 10, 2, 15, 0.125, 0.3701),
        SweepResult("cnn", 10, 1, 15, 0.0, 1 / 3),
    ]
    path = tmp_path / "r.csv"
    emit_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("cnn,10,1,15,")
    back = csv_rows(path)
    assert back == sorted(rows, key=lambda r: (r.variant, r.per_class_size,
                                               r.seed, r.epoch))


def test_emit_csv_refuses_empty(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_csv(tmp_path / "r.csv", [])


@given(st.lists(
    st.tuples(st.sampled_from(["cnn", "cnn-ais"]),
              st.integers(1, 500), st.integers(0, 99), st.integers(1, 40),
              st.floats(0, 1, allow_nan=False),
              st.floats(0, 1, allow_nan=False)),
    min_size=1, max_size=20))
def test_csv_floats_survive_round_trip(tmp_path_factory, cells):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    rows = [SweepResult(*cell) for cell in cells]
    emit_csv(path, rows)
    back = csv_rows(path)
    # repr-based serialization: every float comes back bit-identical
    assert sorted(back, key=lambda r: (r.variant, r.per_class_size,
                                       r.seed, r.epoch)) == \
        sorted(rows, key=lambda r: (r.variant, r.per_class_size,
                                    r.seed, r.epoch))


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------

def test_svg_is_wellformed_and_byte_deterministic(tmp_path):
    series = [("cnn", [(10.0, 0.4), (25.0, 0.3)]),
              ("cnn-ais", [(10.0, 0.38), (25.0, 0.29)])]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_lineplot(a, series, "t", "x", "y")
    emit_svg_lineplot(b, series, "t", "x", "y")
    assert a.read_bytes() == b.read_bytes()
    root = ET.fromstring(a.read_text())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_svg_refuses_empty(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_svg_lineplot(tmp_path / "a.svg", [], "t", "x", "y")
    with pytest.raises(ConfigurationError):
        emit_svg_lineplot(tmp_path / "a.svg", [("s", [])], "t", "x", "y")


def test_svg_handles_constant_series(tmp_path):
    # degenerate y range must not divide by zero
    emit_svg_lineplot(tmp_path / "a.svg",
                      [("s", [(1.0, 0.5), (2.0, 0.5)])], "t", "x", "y")
    assert (tmp_path / "a.svg").exists()


def test_sweep_summary_series_means():
    rows = [SweepResult("cnn", 10, 1, 5, 0.0, 0.4),
            SweepResult("cnn", 10, 2, 5, 0.0, 0.2),
            SweepResult("cnn", 25, 1, 5, 0.0, 0.1),
            SweepResult("cnn-ais", 10, 1, 5, 0.0, 0.5)]
    series = dict(sweep_summary_series(rows))
    assert series["cnn"] == [(10.0, pytest.approx(0.3)),
                             (25.0, pytest.approx(0.1))]
    assert series["cnn-ais"] == [(10.0, 0.5)]


def test_curve_series_one_per_seed_sorted_by_epoch():
    rows = [SweepResult("cnn-ais", 50, 2, 2, 0.0, 0.3),
            SweepResult("cnn-ais", 50, 1, 1, 0.0, 0.5),
            SweepResult("cnn-ais", 50, 1, 2, 0.0, 0.4),
            SweepResult("cnn-ais", 50, 2, 1, 0.0, 0.6)]
    series = curve_series(rows)
    assert [name for name, _ in series] == ["seed 1", "seed 2"]
    assert series[0][1] == [(1.0, 0.5), (2.0, 0.4)]


# ---------------------------------------------------------------------------
# small end-to-end runs
# ---------------------------------------------------------------------------

def test_train_variant_names_the_diverging_epoch(corpus):
    train, test = corpus
    cfg = ExperimentConfig(**{**TINY, "learning_rate": 1e308})
    arch = ArchConfig(num_classes=len(train.class_ids))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"^epoch 1, batch \d+:"):
        train_variant(stratified_subset(train, 2, seed=0),
                      fixed_test_subset(test, 20), "cnn", 2, 1, cfg, arch,
                      epochs=2, record_epochs=False)


@pytest.mark.parametrize("which", ["train", "test"])
def test_train_variant_rejects_images_of_another_size(corpus, which):
    # a 32x32 corpus against the 28x28 network
    data = {"train": stratified_subset(corpus[0], 2, seed=0),
            "test": fixed_test_subset(corpus[1], 20)}
    ds = data[which]
    data[which] = Dataset(np.pad(ds.images, ((0, 0), (2, 2), (2, 2))), ds.labels)
    with pytest.raises(ConfigurationError, match=which):
        train_variant(data["train"], data["test"], "cnn", 2, 1,
                      ExperimentConfig(**TINY), ArchConfig(), epochs=1,
                      record_epochs=False)


def test_size_sweep_rejects_labels_outside_the_classes(corpus):
    # a corpus of digits 3 and 7 builds a two-class network
    keep = np.isin(corpus[0].labels, [3, 7])
    train = Dataset(corpus[0].images[keep], corpus[0].labels[keep])
    with pytest.raises(ConfigurationError, match="labels"):
        run_size_sweep(ExperimentConfig(**TINY), data=(train, corpus[1]))


def test_train_variant_rejects_negative_labels(corpus):
    train, test = corpus
    train = stratified_subset(train, 2, seed=0)
    labels = train.labels.copy()
    labels[0] = -1
    with pytest.raises(ConfigurationError, match="labels"):
        train_variant(Dataset(train.images, labels), fixed_test_subset(test, 20),
                      "cnn", 2, 1, ExperimentConfig(**TINY),
                      ArchConfig(num_classes=10), epochs=1,
                      record_epochs=False)


def test_train_variant_rejects_fractional_labels_before_a_step(
        corpus, monkeypatch):
    # one label rule, nn's, checked once before the first epoch
    train, test = corpus
    train = stratified_subset(train, 2, seed=0)
    labels = train.labels.astype(np.float64)
    labels[0] = 0.5
    steps = []
    monkeypatch.setattr(harness, "train_epoch",
                        lambda *args: steps.append(args))
    with pytest.raises(ConfigurationError,
                       match="train labels must be integers"):
        train_variant(Dataset(train.images, labels), fixed_test_subset(test, 20),
                      "cnn", 2, 1, ExperimentConfig(**TINY),
                      ArchConfig(num_classes=10), epochs=1,
                      record_epochs=False)
    assert not steps


def test_train_variant_checks_test_labels_before_a_step(corpus, monkeypatch):
    # the test labels used to be checked first by evaluate, after the last
    # epoch, in an error that did not name the test set
    train, test = corpus
    keep = np.isin(train.labels, [0, 1])
    train = stratified_subset(Dataset(train.images[keep], train.labels[keep]),
                              2, seed=0)
    test = Dataset(test.images[:2], np.array([0, 5]))
    steps, sgd_step = [], nn.sgd_step
    monkeypatch.setattr(nn, "sgd_step",
                        lambda *args: steps.append(1) or sgd_step(*args))
    with pytest.raises(ConfigurationError,
                       match=r"^test labels hold a label outside \[0, 2\): "
                             r"label 5 is the first"):
        train_variant(train, test, "cnn", 2, 1, ExperimentConfig(**TINY),
                      ArchConfig(num_classes=2), epochs=3,
                      record_epochs=False)
    assert not steps


def test_size_sweep_covers_the_grid(corpus):
    cfg = ExperimentConfig(**TINY)
    rows = run_size_sweep(cfg, data=corpus)
    assert len(rows) == 2
    assert {r.variant for r in rows} == {"cnn", "cnn-ais"}
    for r in rows:
        assert r.epoch == cfg.epochs
        assert 0.0 <= r.train_error <= 1.0
        assert 0.0 <= r.test_error <= 1.0


def test_size_sweep_is_deterministic(corpus):
    cfg = ExperimentConfig(**TINY, variant="cnn")
    assert run_size_sweep(cfg, data=corpus) == run_size_sweep(cfg, data=corpus)


def test_epoch_curve_rows_and_pools(corpus):
    cfg = ExperimentConfig(**TINY, curve_epochs=2, curve_per_class=2,
                           variant="cnn-ais")
    rows, pools_by_seed = run_epoch_curve(cfg, data=corpus)
    assert [r.epoch for r in rows] == [1, 2]
    assert set(pools_by_seed) == {1}
    assert sorted(pools_by_seed[1]) == list(range(10))


def test_two_class_application_shapes(corpus):
    cfg = ExperimentConfig(**TINY, two_class_train=3, two_class_test=10)
    result = run_two_class_application(cfg, data=corpus)
    assert 0.0 <= result.accuracy <= 1.0
    assert len(result.decisions) == 10
    assert set(result.true_labels) == set(cfg.two_class_labels)
    assert result.third_total > 0
    assert set(cfg.two_class_labels) <= set(result.pools)


def test_third_class_without_test_images_rejected_before_training(
        corpus, monkeypatch):
    # such a run used to train, then report 0 probes and 0 no-matches; a
    # class the corpus lacks, and one whose test images are dropped
    train, test = corpus
    keep = test.labels != 3
    without_3 = Dataset(test.images[keep], test.labels[keep])
    monkeypatch.setattr(harness, "train_variant", None)
    for third_class, test_set in ((11, test), (3, without_3)):
        cfg = ExperimentConfig(**TINY, third_class=third_class,
                               two_class_train=3, two_class_test=10)
        with pytest.raises(ConfigurationError,
                           match=f"third class {third_class} has no test"):
            run_two_class_application(cfg, data=(train, test_set))


@pytest.mark.parametrize("labels, drop_from", [((0, 12), None),
                                               ((0, 1), "train"),
                                               ((0, 1), "test")])
def test_two_class_label_without_images_rejected(corpus, labels, drop_from):
    # (0, 12) used to train on class 0 alone and report accuracy 0.0
    train, test = corpus
    data = {"train": train, "test": test}
    if drop_from is not None:
        ds = data[drop_from]
        data[drop_from] = Dataset(ds.images[ds.labels != 1],
                                  ds.labels[ds.labels != 1])
    cfg = ExperimentConfig(**TINY, two_class_labels=labels,
                           two_class_train=3, two_class_test=10)
    missing = labels[1]
    with pytest.raises(ConfigurationError, match=f"label {missing} has no"):
        run_two_class_application(cfg, data=(data["train"], data["test"]))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class _Captured(Exception):
    pass


def _capture(*args, **kwargs):
    raise _Captured(args, kwargs)


# every train flag with a value other than its default, and the
# ExperimentConfig field it sets
_TRAIN_FLAGS = [
    ("--sizes", "4,7", "sizes", (4, 7)),
    ("--seeds", "5,6", "seeds", (5, 6)),
    ("--lr", "0.25", "learning_rate", 0.25),
    ("--variant", "cnn", "variant", "cnn"),
    ("--eta", "2.5", "eta", 2.5),
    ("--alpha", "0.3", "alpha", 0.3),
    ("--tau", "0.45", "tau", 0.45),
    ("--batch-size", "6", "batch_size", 6),
]


@pytest.mark.parametrize("command, runner, extra", [
    ("size-sweep", "run_size_sweep", [("--epochs", "3", "epochs", 3)]),
    ("epoch-curve", "run_epoch_curve",
     [("--epochs", "3", "curve_epochs", 3),
      ("--per-class", "9", "curve_per_class", 9)]),
    ("two-class", "run_two_class_application",
     [("--epochs", "3", "epochs", 3), ("--seeds", "5", "seeds", (5,))]),
])
def test_cli_train_flags_set_their_config_fields(tmp_path, monkeypatch,
                                                 command, runner, extra):
    monkeypatch.setattr(harness, runner, _capture)
    # the curve trains at --per-class only: no --sizes; two-class trains
    # one network: no grid flags, one seed
    skipped = {"size-sweep": (), "epoch-curve": ("--sizes",),
               "two-class": ("--sizes", "--variant", "--seeds")}[command]
    train_flags = [f for f in _TRAIN_FLAGS if f[0] not in skipped]
    flags = train_flags + extra + [
        ("--data-dir", str(tmp_path / "d"), "data_dir", str(tmp_path / "d")),
        ("--out", str(tmp_path / "o"), "out_dir", str(tmp_path / "o")),
    ]
    argv = [command] + [text for flag, value, _, _ in flags
                        for text in (flag, value)]
    with pytest.raises(_Captured) as caught:
        cli.main(argv)
    (cfg,), _ = caught.value.args
    # every field a flag does not name keeps its default
    expected = {field: value for _, _, field, value in flags}
    assert cfg == dataclasses.replace(ExperimentConfig(), **expected)
    assert (tmp_path / "o").is_dir()


@pytest.mark.parametrize("command, flag, key, text", [
    ("size-sweep", "--epochs", "epochs", "2.5"),
    ("size-sweep", "--batch-size", "batch_size", "0"),
    ("size-sweep", "--lr", "learning_rate", "fast"),
    ("two-class", "--eta", "eta", "nan"),
    ("two-class", "--alpha", "alpha", "-1"),
    ("size-sweep", "--tau", "tau", "1.5"),
    ("epoch-curve", "--epochs", "curve_epochs", "2.5"),
    ("epoch-curve", "--per-class", "curve_per_class", "ten"),
])
def test_cli_bad_flag_fails_as_its_config_line_does(tmp_path, monkeypatch,
                                                    command, flag, key, text):
    # argparse used to parse these flags first and exit with code 2
    monkeypatch.setattr(harness, "run_size_sweep", _capture)
    monkeypatch.setattr(harness, "run_epoch_curve", _capture)
    monkeypatch.setattr(harness, "run_two_class_application", _capture)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    errors = []
    for argv in ([flag, text], ["--config", str(cfg_file)]):
        with pytest.raises(ConfigurationError, match=key) as err:
            cli.main([command, "--out", str(tmp_path / "o")] + argv)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--sizes", "7"], ["--variant", "cnn"]],
                         ids=["sizes", "variant"])
def test_cli_two_class_offers_no_grid_flags(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(harness, "run_two_class_application", _capture)
    with pytest.raises(SystemExit):
        cli.main(["two-class", "--out", str(tmp_path / "o")] + argv)
    assert not (tmp_path / "o").exists()


def test_cli_epoch_curve_offers_no_sizes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_epoch_curve", _capture)
    with pytest.raises(SystemExit) as exited:
        cli.main(["epoch-curve", "--out", str(tmp_path / "o"),
                  "--sizes", "7,9"])
    assert exited.value.code == 2
    assert "--sizes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_two_class_rejects_several_seeds(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_two_class_application", _capture)
    with pytest.raises(ConfigurationError, match="one seed"):
        cli.main(["two-class", "--out", str(tmp_path / "o"),
                  "--seeds", "1,2,3"])
    assert not (tmp_path / "o").exists()
    # one seed, or the configured default, reaches the run
    for argv, seeds in ([["--seeds", "4"], (4,)], [[], (1, 2, 3)]):
        with pytest.raises(_Captured) as caught:
            cli.main(["two-class", "--out", str(tmp_path / "o")] + argv)
        (cfg,), _ = caught.value.args
        assert cfg.seeds == seeds


def test_cli_clonalg_demo_flags_reach_the_runs(tmp_path, monkeypatch):
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return ClonalgResult(None, None, None, [0.5])

    monkeypatch.setattr(harness, "run_clonalg_demo", fake)
    assert cli.main(["clonalg-demo", "--out", str(tmp_path / "o"),
                     "--seeds", "3,1", "--pop", "7", "--generations", "1",
                     "--eta", "2.0", "--alpha", "0.4", "--sigma", "0.3",
                     "--select-n", "2"]) == 0
    common = dict(population_size=7, generations=1, eta=2.0, alpha=0.4,
                  sigma=0.3, select_n=2)
    assert calls == [dict(common, seed=3), dict(common, seed=1)]
    assert (tmp_path / "o" / "clonalg_history.csv").read_text() == \
        "seed,generation,best_affinity\n3,1,0.5\n1,1,0.5\n"


def test_cli_clonalg_demo_writes_artifacts(tmp_path, capsys):
    rc = cli.main(["clonalg-demo", "--out", str(tmp_path), "--pop", "12",
                   "--generations", "5", "--select-n", "4", "--seeds", "3"])
    assert rc == 0
    hist = (tmp_path / "clonalg_history.csv").read_text().splitlines()
    assert hist[0] == "seed,generation,best_affinity"
    assert len(hist) == 6
    assert (tmp_path / "clonalg_history.svg").exists()
    assert "seed 3" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["1,x", "", "-1", "2,2"])
def test_cli_clonalg_demo_rejects_bad_seeds(tmp_path, seeds):
    with pytest.raises(ConfigurationError, match="seeds"):
        cli.main(["clonalg-demo", "--out", str(tmp_path), "--seeds", seeds])


def test_cli_size_sweep_smoke(tmp_path, corpus_dir):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("test_subset = 20\nbatch_size = 4\n")
    rc = cli.main(["size-sweep", "--config", str(cfg_file),
                   "--data-dir", str(corpus_dir),
                   "--out", str(tmp_path / "o"),
                   "--sizes", "2", "--seeds", "1", "--epochs", "1",
                   "--variant", "cnn"])
    assert rc == 0
    rows = csv_rows(tmp_path / "o" / "size_sweep.csv")
    assert len(rows) == 1
    assert rows[0].variant == "cnn"
    assert (tmp_path / "o" / "size_sweep.svg").exists()


def test_cli_size_sweep_on_an_empty_corpus_names_the_cause(tmp_path):
    # four valid index files of 0 images used to die with ZeroDivisionError
    for images, labels in ((synthdigits.TRAIN_IMAGES, synthdigits.TRAIN_LABELS),
                           (synthdigits.TEST_IMAGES, synthdigits.TEST_LABELS)):
        (tmp_path / images).write_bytes(idx_image_header(0, 28, 28))
        (tmp_path / labels).write_bytes(
            serialize_idx_labels(np.zeros(0, np.int64)))
    with pytest.raises(ConfigurationError, match="dataset has no classes"):
        cli.main(["size-sweep", "--data-dir", str(tmp_path),
                  "--out", str(tmp_path / "o"), "--sizes", "2",
                  "--seeds", "1", "--epochs", "1"])


def test_cli_epoch_curve_writes_versioned_pools(tmp_path, corpus_dir):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("test_subset=20\nbatch_size=4\n")
    rc = cli.main(["epoch-curve", "--config", str(cfg_file),
                   "--data-dir", str(corpus_dir),
                   "--out", str(tmp_path / "o"),
                   "--seeds", "2", "--epochs", "2", "--per-class", "2",
                   "--variant", "cnn-ais"])
    assert rc == 0
    pool_file = tmp_path / "o" / "pools_seed2.txt"
    assert pool_file.read_text().splitlines()[0] == "clonalnet-pools v1"
    assert len(csv_rows(tmp_path / "o" / "epoch_curve.csv")) == 2


def test_cli_two_class_smoke(tmp_path, corpus_dir, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("two_class_train=3\ntwo_class_test=10\n"
                        "batch_size=4\ntest_subset=20\n")
    rc = cli.main(["two-class", "--config", str(cfg_file),
                   "--data-dir", str(corpus_dir),
                   "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--seeds", "1"])
    assert rc == 0
    assert (tmp_path / "o" / "two_class_decisions.csv").exists()
    assert (tmp_path / "o" / "two_class_pools.txt").exists()
    assert "two-class accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--instances", "0"], ["--instances", "-3"], ["--coords", "0"],
], ids=["instances=0", "instances=-3", "coords=0"])
def test_cli_gradcheck_rejects_counts_below_one(argv, capsys):
    with pytest.raises(ConfigurationError, match=">= 1"):
        cli.main(["gradcheck"] + argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("audit, kwargs", [
    (run_gradient_audit, {"num_instances": 0}),
    (run_gradient_audit, {"num_instances": -3}),
    (run_gradient_audit, {"num_instances": 1, "coords_per_array": 0}),
    (check_instance, {"seed": 0, "coords_per_array": 0}),
    (check_instance, {"seed": 0, "coords_per_array": -1}),
], ids=["instances=0", "instances=-3", "audit-coords=0", "instance-coords=0",
        "instance-coords=-1"])
def test_gradcheck_rejects_counts_below_one(audit, kwargs):
    with pytest.raises(ConfigurationError, match=">= 1"):
        audit(**kwargs)


def test_cli_gradcheck_reports_pass(capsys):
    rc = cli.main(["gradcheck", "--instances", "2", "--coords", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
