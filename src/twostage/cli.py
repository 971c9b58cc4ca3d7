"""Command-line interface.

Four subcommands: gen writes a synthetic instance as JSON, bench executes a
JSON-configured sweep into a single CSV, solve runs its flags as a one-entry
sweep, and eval prints the objective value and witnesses of an explicit
reduced set.

Exit codes: 0 on success, 2 for validation and input errors (argparse uses
the same code for bad flags), 3 when an enumeration guard refuses the work.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from .exceptions import GuardExceededError, TwoStageError, ValidationError
from .harness import F_EVAL_MODES, RunConfig, TrialRecord, run_experiment, write_csv
from .instances import (
    GENERATOR_KINDS,
    Instance,
    _check_fields,
    _decode_json,
    _encode_json,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .reference import evaluate_F_exact, evaluate_F_greedy

__all__ = ["main", "build_parser"]

_ALGO_NAMES = {
    "sampling-greedy": "sampling_greedy",
    "replacement-greedy": "replacement_greedy",
    "random": "random_baseline",
    "brute-force": "brute_force",
}

_GENERATE_FIELDS = ("kind", "n", "m", "k", "l", "seed")
_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Two-stage submodular maximization: reduce a ground set "
        "so per-function cardinality-constrained maximization stays near-optimal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance as JSON")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--n", required=True, type=int, help="ground set size")
    gen.add_argument("--m", required=True, type=int, help="number of functions")
    gen.add_argument("--k", required=True, type=int, help="per-function budget")
    gen.add_argument("--l", required=True, type=int, help="reduction budget")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True, help="output instance file")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run one algorithm, write trial CSV")
    solve.add_argument("--instance", required=True, help="instance JSON file")
    solve.add_argument("--algo", required=True, choices=sorted(_ALGO_NAMES))
    solve.add_argument("--trials", type=int, default=1)
    solve.add_argument("--seed", type=int, default=0, help="base seed; trial t adds t")
    solve.add_argument("--f-eval", choices=F_EVAL_MODES, default="auto")
    solve.add_argument("--out", required=True, help="output CSV file")
    solve.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("eval", help="evaluate an explicit reduced set")
    ev.add_argument("--instance", required=True, help="instance JSON file")
    ev.add_argument("--set", required=True, dest="items",
                    help='comma-separated item ids, e.g. "0,3,5"')
    ev.add_argument("--f-eval", choices=("exact", "greedy"), default="exact")
    ev.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("bench", help="run a configured sweep into one CSV")
    bench.add_argument("--config", required=True, help="sweep config JSON file")
    bench.add_argument("--out", required=True, help="output CSV file")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _read(path: str, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc


def _parse_item_set(text: str) -> frozenset[int]:
    stripped = text.strip()
    if not stripped:
        return frozenset()
    items = set()
    for token in stripped.split(","):
        token = token.strip()
        try:
            items.add(int(token))
        except ValueError:
            raise ValidationError(
                f"set must be comma-separated integers, got {token!r}"
            ) from None
    return frozenset(items)


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(args.kind, args.n, args.m, args.k, args.l, args.seed)
    Path(args.out).write_text(serialize_instance(instance) + "\n", encoding="utf-8")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    entry = {
        "instance": args.instance,
        "algorithm": _ALGO_NAMES[args.algo],
        "trials": args.trials,
        "base_seed": args.seed,
        "f_eval_mode": args.f_eval,
    }
    return _run_entries([entry], args.out)


def _cmd_eval(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance, "instance"))
    S = _parse_item_set(args.items)
    for x in S:
        if not 0 <= x < instance.n:
            raise ValidationError(f"item {x} out of range, ground set has {instance.n} items")
    reporter = evaluate_F_exact if args.f_eval == "exact" else evaluate_F_greedy
    result = reporter(instance, S)
    print(_encode_json({"F": result.value, "mode": args.f_eval, "witnesses": result.witness}))
    return 0


def _bench_instance(what: str, entry: dict) -> tuple[str, Instance]:
    if ("instance" in entry) == ("generate" in entry):
        raise ValidationError(f"{what}: needs exactly one of 'instance' or 'generate'")
    if "instance" in entry:
        path = entry["instance"]
        if not isinstance(path, str):
            raise ValidationError(f"{what}: 'instance' must be a file path string")
        return Path(path).stem, parse_instance(_read(path, "instance"))
    spec = _check_fields(entry["generate"], f"{what} generate", _GENERATE_FIELDS)
    instance = generate_instance(
        spec["kind"], spec["n"], spec["m"], spec["k"], spec["l"], spec["seed"]
    )
    default_id = "{kind}-n{n}-m{m}-k{k}-l{l}-s{seed}".format(**spec)
    return default_id, instance


def _run_entries(entries: list, out: str) -> int:
    """Run each bench entry and write all their records to one CSV."""
    records: list[TrialRecord] = []
    for index, entry in enumerate(entries):
        what = f"bench entry {index}"
        _check_fields(entry, what, ("algorithm",), ("id", "instance", "generate", *_RUN_FIELDS))
        default_id, instance = _bench_instance(what, entry)
        config = RunConfig(**{name: entry[name] for name in _RUN_FIELDS if name in entry})
        instance_id = entry.get("id", default_id)
        if not isinstance(instance_id, str) or not instance_id:
            raise ValidationError(f"{what}: 'id' must be a non-empty string")
        records.extend(run_experiment(instance, config, instance_id=instance_id))

    with open(out, "w", encoding="utf-8", newline="") as fp:
        write_csv(records, fp)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    entries = _decode_json(_read(args.config, "config"), "config")
    if not isinstance(entries, list):
        raise ValidationError("bench config must be a JSON array")
    return _run_entries(entries, args.out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TwoStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
