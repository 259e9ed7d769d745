"""Command-line interface.

Subcommands: train-teacher, distill, eval, report, gradcheck. In the first
three every TrainConfig field is a flag `--field-name` (`--lr-drops 18 24 27`;
a boolean also has `--no-field-name`). A JSON file (--config) may supply
any field and explicit flags win. Abbreviated flags are refused.
Exits 0 on success; every failure, a bad flag included, prints one line
`error: <Kind>: <message>` to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import CHOICES, TrainConfig
from .errors import AttnDistillError, ConfigError

# field annotation -> how its flag parses
_FLAG_KINDS = {"int": dict(type=int), "float": dict(type=float), "str": {},
               "bool": dict(action=argparse.BooleanOptionalAction), "tuple": dict(nargs="*", type=int)}


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated flags and raises ConfigError where argparse would exit 2;
    subcommand parsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(p):
    p.add_argument("--config", default=None, help="JSON file supplying any field")
    for f in fields(TrainConfig):
        kind = dict(_FLAG_KINDS[f.type])
        if f.name in CHOICES:
            kind["choices"] = CHOICES[f.name]
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None, **kind)


def _config_from_args(args) -> TrainConfig:
    return TrainConfig.load(args.config, {f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="attndistill")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="cross-entropy pretraining of the conv teacher")
    _add_config_flags(p)

    p = sub.add_parser("distill", help="single-pass sparse distillation of a student")
    _add_config_flags(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint path")
    p.add_argument("--resume", default=None, help="resume from a per-epoch student checkpoint")

    p = sub.add_parser("eval", help="top-1 accuracy of a checkpoint")
    _add_config_flags(p)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("report", help="parameter/FLOP accounting for a teacher/student pair")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference audit of every primitive")
    p.add_argument("--coords", type=int, default=20)
    p.add_argument("--seeds", type=int, default=5)
    return ap


def _run(args) -> int:
    from . import train as TR

    cfg = _config_from_args(args) if hasattr(args, "config") else None
    if args.command == "train-teacher":
        ckpt, _ = TR.train_teacher(cfg)
        print(f"teacher checkpoint: {ckpt}")
        return 0
    if args.command == "distill":
        ckpt, _ = TR.sparse_distill(cfg, args.teacher, resume=args.resume)
        print(f"student checkpoint: {ckpt}")
        return 0
    if args.command == "eval":
        _, test_ds = TR.load_datasets(cfg, train=False)
        acc = TR.evaluate(args.ckpt, test_ds, cfg.batch_size)
        print(f"accuracy: {acc:.4f}")
        return 0
    if args.command == "report":
        r = TR.report(args.teacher, args.student)
        print(TR.format_report(r))
        return 0
    if args.command == "gradcheck":
        from .gradcheck_suite import run_primitive_suite

        failures = run_primitive_suite(coords=args.coords, seeds=args.seeds, verbose=True)
        return 1 if failures else 0
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (AttnDistillError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
