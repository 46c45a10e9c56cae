"""Command-line entry points.

Verbs:
  train     one training run per the config
  ablate    batch-shape grid (B x K), one run per cell, CSV summary
  compare   ranking vs contrastive arms on identical batches
  eval      probe an existing checkpoint on the configured dataset
  selftest  built-in oracle and gradient checks

Every verb accepts ``--config <path>`` (flat key-value file; defaults
apply when omitted) plus ``--seed``, ``--out`` and ``--deterministic``
overrides.  Exit codes: 0 success, 1 failed checks, runtime I/O errors
or out of memory, 2 invalid config or arguments, 3 training or probe diverged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .atomic import atomic_write
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .encoder import DivergenceError, extract_features, load_checkpoint
from .experiment import (
    GRID_B_VALUES,
    GRID_K_VALUES,
    compare_losses,
    eval_inputs,
    evaluate,
    run_ablation_grid,
    run_experiment,
)
from .selftest import run_selftest

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="flat key-value config file")
    sub.add_argument("--seed", type=int, metavar="U64", help="override the run seed")
    sub.add_argument("--out", metavar="DIR", help="override the output directory")
    sub.add_argument(
        "--deterministic", action="store_true", default=None,
        help="pin clock-dependent fields so reruns are byte-identical",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s2r2",
        description="Self-supervised representation learning by ranking; "
                    "see the package README for the config grammar.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_common_flags(p_train)

    p_ablate = sub.add_parser("ablate", help="sweep batch shapes (B x K) at a fixed step budget")
    _add_common_flags(p_ablate)
    p_ablate.add_argument(
        "--B", default=",".join(map(str, GRID_B_VALUES)),
        metavar="LIST", help="comma-separated group counts (default %(default)s)",
    )
    p_ablate.add_argument(
        "--K", default=",".join(map(str, GRID_K_VALUES)),
        metavar="LIST", help="comma-separated views per group (default %(default)s)",
    )

    p_compare = sub.add_parser("compare", help="ranking vs contrastive on identical batches")
    _add_common_flags(p_compare)

    p_eval = sub.add_parser("eval", help="probe an existing checkpoint")
    _add_common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True, metavar="PATH", help="checkpoint.bin to probe")

    p_self = sub.add_parser("selftest", help="run built-in oracle and gradient checks")
    p_self.add_argument("--seed", type=int, default=0, metavar="U64")

    return parser


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return with_overrides(cfg, seed=args.seed, output_dir=args.out,
                          deterministic=args.deterministic)


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


def _cmd_train(args) -> int:
    run = run_experiment(_load_experiment_config(args))
    print(
        f"train: {run.config.steps} steps done, final loss {run.final_loss:.4f}, "
        f"probe top-1 {run.final_probe_top1:.4f}, artifacts in {run.output_dir}"
    )
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _load_experiment_config(args)
    cells = run_ablation_grid(cfg, _parse_int_list(args.B, "--B"), _parse_int_list(args.K, "--K"))
    failures = [c for c in cells if c.error]
    for c in cells:
        status = c.error if c.error else f"probe top-1 {c.probe_top1:.4f}"
        print(f"ablate: B={c.B:<3d} K={c.K:<2d} -> {status}")
    print(f"ablate: grid written to {os.path.join(cfg.output_dir, 'grid.csv')}")
    return EXIT_FAILURE if len(failures) == len(cells) else EXIT_OK


def _cmd_compare(args) -> int:
    result = compare_losses(_load_experiment_config(args))
    print(
        f"compare: ranking {result.s2r2.final_probe_top1:.4f} vs "
        f"contrastive {result.infonce.final_probe_top1:.4f} "
        f"(gap {result.probe_gap:+.4f}), artifacts in {os.path.dirname(result.s2r2.output_dir)}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_experiment_config(args)
    params = load_checkpoint(args.checkpoint)
    _, train_ds, test_ds, probe_cfg = eval_inputs(cfg)
    if train_ds.feature_dim != params.config.input_dim:
        raise ConfigError(
            f"checkpoint expects input dim {params.config.input_dim}, "
            f"dataset provides {train_ds.feature_dim}"
        )
    # features come through this module's `extract_features`, whose first
    # call bench/child.py takes as the end of eval set-up
    probe_top1, retrieval = evaluate(partial(extract_features, params), train_ds, test_ds,
                                     probe_cfg)
    report = {
        "checkpoint": args.checkpoint,
        "probe_top1": probe_top1,
        "retrieval_map": retrieval,
        "n_train": len(train_ds),
        "n_test": len(test_ds),
    }
    print(json.dumps(report))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_write(os.path.join(args.out, "eval.json"), encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    checks = run_selftest(args.seed)
    print(*checks, sep="\n")
    passed = sum(c.ok for c in checks)
    print(f"selftest: {passed}/{len(checks)} checks passed")
    return EXIT_OK if passed == len(checks) else EXIT_FAILURE


_COMMANDS = {
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "compare": _cmd_compare,
    "eval": _cmd_eval,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:  # numpy's failed allocations raise a subclass
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
