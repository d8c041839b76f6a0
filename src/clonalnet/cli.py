"""Command-line entry points for the experiments.

Subcommands:
  size-sweep     error vs training-set size, plain and clonal variants
  epoch-curve    error vs epoch at a fixed per-class size
  two-class      two-class application with no-match gating on a third class
  clonalg-demo   standalone clonal selection against a binary glyph
  gradcheck      finite-difference audit of the full gradient stack
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import harness
from .classifier import write_decision_records
from .clonal import save_pools
from .errors import ConfigurationError
from .gradcheck import run_gradient_audit

GRAD_TOLERANCE = 1e-4
# the clonalg-demo flags, each the run_clonalg_demo argument it sets
_DEMO_FLAGS = ("population_size", "generations", "eta", "alpha", "sigma",
               "select_n")


def _add_common(parser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value configuration file")
    parser.add_argument("--data-dir", metavar="PATH", dest="data_dir",
                        help="directory with the index-format image/label "
                             "files; a synthetic corpus is generated there "
                             "when they are missing")
    parser.add_argument("--out", metavar="DIR", dest="out_dir",
                        help="output directory (default: out)")


def _add_variant_flag(parser) -> None:
    """The variants a sweep or curve trains."""
    parser.add_argument("--variant", choices=harness.VARIANTS + ("both",))


def _add_train_flags(parser, epochs_dest: str = "epochs") -> None:
    """Each flag's text is parsed by ``config_from_mapping`` only, as the
    same key's text in a config file is, so it takes no ``type``."""
    parser.add_argument("--seeds", help="comma-separated seeds, e.g. 1,2,3")
    parser.add_argument("--epochs", dest=epochs_dest, metavar="EPOCHS")
    parser.add_argument("--lr", dest="learning_rate", metavar="LR",
                        help="learning rate")
    parser.add_argument("--eta", help="cloning constant")
    parser.add_argument("--alpha", help="mutation constant")
    parser.add_argument("--tau", help="acceptance threshold")
    parser.add_argument("--batch-size", dest="batch_size")


def _experiment_config(args) -> harness.ExperimentConfig:
    """The --config file overridden by every flag given; a flag's dest is
    the ExperimentConfig key it sets, and its text goes on as it came."""
    keys = {f.name for f in fields(harness.ExperimentConfig)}
    return harness.load_config(getattr(args, "config", None), {
        key: value for key, value in vars(args).items()
        if key in keys and value is not None})


def _out_dir(cfg: harness.ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_size_sweep(args) -> int:
    cfg = _experiment_config(args)
    out = _out_dir(cfg)
    rows = harness.run_size_sweep(cfg)
    harness.emit_csv(out / "size_sweep.csv", rows)
    series = harness.sweep_summary_series(rows)
    harness.emit_svg_lineplot(out / "size_sweep.svg", series,
                              "Test error vs training-set size",
                              "training samples per class", "test error")
    for variant, pts in series:
        for size, err in pts:
            print(f"{variant:8s} size {int(size):4d}  mean test error {err:.4f}")
    print(f"wrote {out / 'size_sweep.csv'} and {out / 'size_sweep.svg'}")
    return 0


def cmd_epoch_curve(args) -> int:
    cfg = _experiment_config(args)
    out = _out_dir(cfg)
    rows, pools_by_seed = harness.run_epoch_curve(cfg)
    harness.emit_csv(out / "epoch_curve.csv", rows)
    harness.emit_svg_lineplot(out / "epoch_curve.svg",
                              harness.curve_series(rows),
                              "Test error vs epoch", "epoch", "test error")
    for seed, pools in sorted(pools_by_seed.items()):
        save_pools(pools, out / f"pools_seed{seed}.txt")
    for last in sorted((r for r in rows if r.epoch == cfg.curve_epochs),
                       key=lambda r: r.seed):
        print(f"seed {last.seed}: epoch {last.epoch} "
              f"train {last.train_error:.4f} test {last.test_error:.4f}")
    print(f"wrote {out / 'epoch_curve.csv'} and {out / 'epoch_curve.svg'}")
    return 0


def cmd_two_class(args) -> int:
    cfg = _experiment_config(args)
    # one cnn-ais network is trained, on the first configured seed
    if args.seeds is not None and len(cfg.seeds) > 1:
        raise ConfigurationError(
            f"two-class trains one network: --seeds takes one seed, "
            f"got {args.seeds!r}")
    out = _out_dir(cfg)
    result = harness.run_two_class_application(cfg)
    write_decision_records(out / "two_class_decisions.csv", result.decisions,
                           class_ids=sorted(result.pools))
    save_pools(result.pools, out / "two_class_pools.txt")
    print(f"two-class accuracy: {result.accuracy:.4f} "
          f"over {len(result.decisions)} test samples")
    for label in sorted(cfg.two_class_labels):
        counts = [d.counts.get(label, 0) for d in result.decisions]
        avidities = [d.avidities[label] for d in result.decisions
                     if label in d.avidities]
        scores = [d.scores[label] for d in result.decisions
                  if label in d.scores]
        mean = lambda xs: sum(xs) / len(xs) if xs else float("nan")
        print(f"class {label}: mean C {mean(counts):.2f}, "
              f"mean avidity {mean(avidities):.4f}, "
              f"mean S {mean(scores):.4f} "
              f"(qualified on {len(scores)}/{len(result.decisions)})")
    print(f"third-class probes: {result.third_total}, "
          f"no-match: {result.third_nomatch}, "
          f"recognized by the new pool afterwards: "
          f"{result.third_recognized_after}")
    print(f"wrote {out / 'two_class_decisions.csv'} and "
          f"{out / 'two_class_pools.txt'}")
    return 0


def cmd_clonalg_demo(args) -> int:
    cfg = _experiment_config(args)
    out = _out_dir(cfg)
    # only the flags given; run_clonalg_demo holds the defaults
    given = {key: getattr(args, key) for key in _DEMO_FLAGS
             if getattr(args, key) is not None}
    lines = ["seed,generation,best_affinity"]
    series = []
    for seed in cfg.seeds:
        result = harness.run_clonalg_demo(**given, seed=seed)
        history = list(enumerate(result.history, start=1))
        lines += [f"{seed},{gen},{best!r}" for gen, best in history]
        series.append((f"seed {seed}",
                       [(float(g), float(b)) for g, b in history]))
        print(f"seed {seed}: best affinity {result.history[-1]:.4f} "
              f"after {len(result.history)} generations")
    (out / "clonalg_history.csv").write_text("\n".join(lines) + "\n")
    harness.emit_svg_lineplot(out / "clonalg_history.svg", series,
                              "Best affinity vs generation", "generation",
                              "best affinity")
    print(f"wrote {out / 'clonalg_history.csv'} and "
          f"{out / 'clonalg_history.svg'}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_audit(num_instances=args.instances,
                                 coords_per_array=args.coords)
    worst = 0.0
    for r in results:
        worst = max(worst, r.max_rel_error)
        print(f"instance {r.seed:3d}  plain {r.max_rel_error_plain:.3e}  "
              f"clone {r.max_rel_error_clone:.3e}")
    ok = worst < GRAD_TOLERANCE
    print(f"gradient audit: {'PASS' if ok else 'FAIL'} "
          f"(max relative error {worst:.3e}, threshold {GRAD_TOLERANCE:g}, "
          f"{len(results)} instances)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonalnet",
        description="small-data visual pattern recognition with a clonal "
                    "selection feature layer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("size-sweep",
                       help="train both variants over a grid of per-class "
                            "sizes and seeds")
    _add_common(p)
    p.add_argument("--sizes",
                   help="comma-separated per-class sizes, e.g. 10,25,50,100")
    _add_variant_flag(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_size_sweep)

    p = sub.add_parser("epoch-curve",
                       help="per-epoch error curve at a fixed per-class size")
    # the curve trains at --per-class only, so it takes no --sizes
    _add_common(p)
    _add_variant_flag(p)
    _add_train_flags(p, epochs_dest="curve_epochs")
    p.add_argument("--per-class", dest="curve_per_class",
                   metavar="PER_CLASS",
                   help="training samples per class for the curve")
    p.set_defaults(func=cmd_epoch_curve)

    p = sub.add_parser("two-class",
                       help="two-class application with no-match gating")
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_two_class)

    p = sub.add_parser("clonalg-demo",
                       help="standalone clonal selection on a binary glyph")
    p.add_argument("--out", metavar="DIR", dest="out_dir")
    p.add_argument("--pop", type=int, dest="population_size", metavar="POP",
                   help="population size")
    p.add_argument("--generations", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--select-n", type=int, dest="select_n")
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.set_defaults(func=cmd_clonalg_demo)

    p = sub.add_parser("gradcheck",
                       help="finite-difference audit of the gradient stack")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--coords", type=int, default=6,
                   help="sampled coordinates per parameter array")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
