"""Command-line front end.

Four commands:

* ``run <file>`` — execute one scenario file; exit code reports the
  outcome (0 ok, 1 expectation failed, 2 parse error, 3 capability).
* ``matrix [dir]`` — run a scenario corpus (default: the bundled one)
  and emit the solution matrix report; nonzero exit when the corpus is
  incomplete or any scenario fails.
* ``attack <name>`` — replay a named attack and print its evidence;
  exit 0 iff the attack succeeded.
* ``privacy <protocol> <game>`` — run an unlinkability game and print
  the result record.

``attack`` and ``privacy`` exit 3 on any of ``scenario.CAPABILITY_ERRORS``,
as ``run`` does; the exit codes are defined in ``scenario``.

``--out FILE`` additionally writes the printed report to a file; a file
that cannot be written makes the command exit 2 after printing, as does
a ``matrix`` directory that is not a directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from pathtrace.attacks import ATTACKS
from pathtrace.matrix import emit_matrix
from pathtrace.network import AdvModel
from pathtrace.privacy import GameKind, PrivacyGame, run_game
from pathtrace.scenario import CAPABILITY_ERRORS, EXIT_CAPABILITY, EXIT_PARSE, corpus_dir, run_scenario


def _emit(lines: list[str], out: str | None, code: int) -> int:
    """Print ``lines`` and write them to ``out`` if given; returns the
    command's exit ``code``, or EXIT_PARSE when ``out`` cannot be written."""
    text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: send the rest to devnull, so the flush at exit
        # stays quiet and the exit code still tells the outcome
        sys.stdout = open(os.devnull, "w")
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_PARSE
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_scenario(args.file)
    return _emit(result.report_lines(), args.out, result.exit_code)


def _cmd_matrix(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else corpus_dir()
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_PARSE
    code, lines = emit_matrix(directory)
    return _emit(lines, args.out, code)


def _cmd_attack(args: argparse.Namespace) -> int:
    op = ATTACKS[args.name]
    kwargs = {}
    if args.seed is not None:
        if "seed" not in op.spec.settings:
            print(f"error: attack {args.name} does not take a seed", file=sys.stderr)
            return EXIT_PARSE
        kwargs["seed"] = args.seed
    try:
        outcome = op(**kwargs)
    except CAPABILITY_ERRORS as exc:
        print(f"capability: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    return _emit(outcome.report_lines(), args.out, 0 if outcome.succeeded else 1)


def _cmd_privacy(args: argparse.Namespace) -> int:
    game = PrivacyGame(
        kind=GameKind(args.game),
        protocol=args.protocol,
        distinguisher=args.distinguisher,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        adversary=AdvModel(args.adversary),
        worlds=args.worlds,
    )
    try:
        result = run_game(game)
    except CAPABILITY_ERRORS as exc:
        print(f"capability: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    lines = result.report_lines()
    if args.trials < 100:
        lines.append("warning: fewer than 100 trials; not a reportable result")
    return _emit(lines, args.out, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathtrace",
        description="Deterministic simulator for path-based traceability protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("file", help="scenario (.scn) file")
    p_run.add_argument("--out", help="also write the report to this file")
    p_run.set_defaults(func=_cmd_run)

    p_matrix = sub.add_parser("matrix", help="run a corpus and emit the solution matrix")
    p_matrix.add_argument(
        "dir", nargs="?", help="scenario directory (default: bundled corpus)"
    )
    p_matrix.add_argument("--out", help="also write the report to this file")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_attack = sub.add_parser("attack", help="replay a named attack")
    p_attack.add_argument("name", choices=sorted(ATTACKS))
    p_attack.add_argument("--seed", type=int, help="override the attack's default seed")
    p_attack.add_argument("--out", help="also write the report to this file")
    p_attack.set_defaults(func=_cmd_attack)

    p_priv = sub.add_parser("privacy", help="run an unlinkability game")
    p_priv.add_argument("protocol")
    p_priv.add_argument("game", choices=[k.value for k in GameKind])
    p_priv.add_argument("--distinguisher", default="random")
    p_priv.add_argument("--trials", type=int, default=500)
    p_priv.add_argument("--seed", type=int, default=0)
    p_priv.add_argument("--mode", default="default")
    p_priv.add_argument("--adversary", choices=sorted(m.value for m in AdvModel), default="AdvT")
    p_priv.add_argument("--worlds", type=int, default=32)
    p_priv.add_argument("--out", help="also write the report to this file")
    p_priv.set_defaults(func=_cmd_privacy)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
