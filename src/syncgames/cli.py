"""Command-line surface: build, evaluate, transform, audit, optimize, export.

Every command is deterministic given its inputs; stochastic commands
require an explicit --seed.  Exit codes: 0 success, 1 validation failure
(with a message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import ncpo as ncpo_mod
from . import rigidity as rg
from . import serialize as sz
from . import transform as tr
from .cooklevin import (
    clause_access,
    compile_cnf,
    witness_to_assignment,
)
from .games import sampled_value, value
from .optimize import SeesawConfig, classical_value, seesaw

__all__ = ["MAX_SAMPLES", "main", "run"]


class CliError(Exception):
    pass


# A sampled eval draws three 8-byte arrays of N entries (two question
# indices and one uniform per sample); 1 GiB of draws bounds N.
MAX_SAMPLES = 2**30 // 24


def _read_json(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_game(path: str):
    return sz.game_from_doc(_read_json(path))


def _load_strategy(spec: str, game, honest):
    if spec == "honest":
        if honest is None:
            raise CliError("no honest strategy is attached to this game")
        return honest
    return sz.strategy_from_doc(_read_json(spec), game)


def _cmd_game(args) -> int:
    size = sz.BUILTIN_GAMES[args.builtin][1]
    given = {flag: v for flag, v in (("n", args.n), ("l", args.l)) if v is not None}
    unused = sorted(given.keys() - {size})
    if unused:
        hint = f" (its size is --{size})" if size else ""
        raise CliError(f"builtin {args.builtin!r} takes no --{unused[0]}{hint}")
    doc = {"builtin": {"kind": args.builtin, **given}}
    game, honest = sz.game_from_doc(doc)
    _write(sz.dumps(doc), args.out)
    if args.strategy_out:
        if honest is None:
            raise CliError(f"builtin {args.builtin!r} has no honest strategy")
        questions = list(game.questions)
        _write(sz.dumps(sz.strategy_to_doc(honest, questions)), args.strategy_out)
    return 0


def _cmd_eval(args) -> int:
    if args.sample is None and args.seed is not None:
        raise CliError("--seed applies only to --sample; exact evaluation draws nothing")
    game, honest = _load_game(args.game)
    strategy = _load_strategy(args.strategy, game, honest)
    if args.sample is not None:
        if args.seed is None:
            raise CliError("--sample requires an explicit --seed")
        if not 1 <= args.sample <= MAX_SAMPLES:
            raise CliError(f"--sample must be in 1..{MAX_SAMPLES} (24 bytes of draws each), got {args.sample}")
        est, err = sampled_value(game, strategy, args.sample, args.seed)
        doc = {"estimate": est, "stderr": err, "samples": args.sample, "seed": args.seed}
    else:
        report = value(game, strategy)
        doc = sz.report_to_doc(report)
    _write(sz.dumps(doc), args.out)
    return 0


# rigidity kind -> (builtin game kind, residual audit of a strategy)
_RIGIDITY = {
    "ms": ("magic_square", lambda strategy, n: rg.ms_residuals(strategy)),
    "two_of_n": ("two_of_n_ms", rg.two_of_n_residuals),
    "qs": ("question_sampling", rg.qs_residuals),
}


def _cmd_rigidity(args) -> int:
    kind, residuals = _RIGIDITY[args.kind]
    size = sz.BUILTIN_GAMES[kind][1]  # "n", or None for a game with no size
    if size is None and args.n is not None:
        raise CliError(f"rigidity --kind {args.kind} takes no --n")
    n = 2 if args.n is None else args.n
    # the builtin document checks n against its bounds
    spec = {"kind": kind} if size is None else {"kind": kind, size: n}
    game, honest = sz.game_from_doc({"builtin": spec})
    strategy = _load_strategy(args.strategy, game, honest)
    _write(sz.dumps(sz.residuals_to_doc(residuals(strategy, n))), args.out)
    return 0


def _cmd_transform(args) -> int:
    lift, takes_T = sz.TRANSFORMS[args.transform]
    if args.T is not None and not takes_T:
        raise CliError(f"{args.transform} takes no --T")
    if args.lift_out and not args.lift:
        raise CliError("--lift-out applies only to --lift")
    base_doc = _read_json(args.base)
    params = {"T": args.T} if takes_T else {}  # a missing --T is refused as T null
    doc = {"transform": args.transform, "params": params, "base": base_doc}
    if args.lift:
        if lift is None:
            raise CliError(
                f"{args.transform} has no --lift: lifted strategies over proof-indexed"
                " question spaces are too large to serialize"
            )
        if not args.lift_out:
            raise CliError("--lift requires --lift-out")
    game, _ = sz.game_from_doc(doc)  # validates the transformation
    if args.lift:
        base_game, base_honest = sz.game_from_doc(base_doc)
        strategy = _load_strategy(args.lift, base_game, base_honest)
        lifted = getattr(tr, lift)(base_game, strategy)
    _write(sz.dumps(doc), args.out)
    if args.lift:
        _write(sz.dumps(sz.strategy_to_doc(lifted, list(game.questions))), args.lift_out)
    return 0


def _cmd_cooklevin(args) -> int:
    machine = sz.machine_from_doc(_read_json(args.machine))
    if args.action == "compile":
        cnf = compile_cnf(machine, args.T, args.R)
        _write(sz.cnf_to_dimacs(cnf), args.out)
        return 0
    if args.action == "clause":
        found = clause_access(machine, args.T, args.R, args.i, args.j, args.k)
        if found is None:
            _write("null\n", args.out)
        else:
            _write(
                "\n".join(" ".join(str(l) for l in c) for c in found) + "\n",
                args.out,
            )
        return 0
    # witness
    if not args.w or set(args.w) - {"0", "1"}:
        raise CliError(f"--w must be a nonempty string of 0s and 1s, got {args.w!r}")
    assignment = witness_to_assignment(machine, args.T, [int(ch) for ch in args.w])
    _write(sz.dumps(sz.assignment_to_doc(assignment)), args.out)
    return 0


def _cmd_seesaw(args) -> int:
    game, _ = _load_game(args.game)
    cfg = SeesawConfig(
        dim=args.dim, restarts=args.restarts, max_iters=args.iters, seed=args.seed
    )
    strategy, best, trace = seesaw(game, cfg)
    doc = sz.strategy_to_doc(strategy, list(game.questions))
    doc["value"] = best
    _write(sz.dumps(doc), args.out)
    if args.trace:
        lines = ["restart,iteration,value"]
        lines += [f"{r},{i},{format(v, '.17g')}" for r, i, v in trace]
        _write("\n".join(lines) + "\n", args.trace)
    return 0


def _cmd_classical(args) -> int:
    game, _ = _load_game(args.game)
    val, assignment = classical_value(game, cap=args.cap)
    doc = {
        "value": val,
        "assignment": {sz.label_key(x): sz.label_key(a) for x, a in assignment.items()},
    }
    _write(sz.dumps(doc), args.out)
    return 0


def _cmd_ncpo(args) -> int:
    game, _ = _load_game(args.game)
    _write(ncpo_mod.game_to_ncpo(game), args.out)
    return 0


@functools.cache  # one parser per process: parse_args returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncgames",
        description="workbench for synchronous nonlocal games",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("game", help="emit game documents")
    psub = p.add_subparsers(dest="action", required=True)
    show = psub.add_parser("show", help="emit a builtin game document")
    show.add_argument("--builtin", required=True, choices=sorted(sz.BUILTIN_GAMES))
    show.add_argument("--n", type=int)
    show.add_argument("--l", type=int)
    show.add_argument("--out")
    show.add_argument("--strategy-out")
    show.set_defaults(func=_cmd_game)

    p = sub.add_parser("eval", help="evaluate a strategy on a game")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True, help="strategy JSON path or 'honest'")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rigidity", help="residual audit of a strategy")
    p.add_argument("--kind", required=True, choices=tuple(_RIGIDITY))
    p.add_argument("--n", type=int, help="size of two_of_n and qs (default 2)")
    p.add_argument("--strategy", default="honest")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("transform", help="transform a game document")
    p.add_argument("--transform", required=True, choices=tuple(sz.TRANSFORMS))
    p.add_argument("--base", required=True)
    p.add_argument("--T", type=int)
    p.add_argument("--lift", help="base strategy JSON path or 'honest'")
    p.add_argument("--lift-out")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("cooklevin", help="tableau formula tooling")
    csub = p.add_subparsers(dest="action", required=True)
    comp = csub.add_parser("compile", help="emit the DIMACS formula")
    comp.add_argument("--machine", required=True)
    comp.add_argument("--T", type=int, required=True)
    comp.add_argument("--R", type=int, required=True)
    comp.add_argument("--out")
    comp.set_defaults(func=_cmd_cooklevin)
    cl = csub.add_parser("clause", help="clauses over a variable triple")
    cl.add_argument("--machine", required=True)
    cl.add_argument("--T", type=int, required=True)
    cl.add_argument("--R", type=int, required=True)
    cl.add_argument("--i", type=int, required=True)
    cl.add_argument("--j", type=int, required=True)
    cl.add_argument("--k", type=int, required=True)
    cl.add_argument("--out")
    cl.set_defaults(func=_cmd_cooklevin)
    wit = csub.add_parser("witness", help="assignment for an accepting witness")
    wit.add_argument("--machine", required=True)
    wit.add_argument("--T", type=int, required=True)
    wit.add_argument("--w", required=True, help="witness bits, e.g. 0110")
    wit.add_argument("--out")
    wit.set_defaults(func=_cmd_cooklevin)

    p = sub.add_parser("seesaw", help="variational lower bound")
    p.add_argument("--game", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", help="CSV iteration trace path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_seesaw)

    p = sub.add_parser("classical", help="exact deterministic optimum")
    p.add_argument("--game", required=True)
    p.add_argument("--cap", type=int, default=10**8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("ncpo", help="emit the polynomial-optimization program")
    p.add_argument("--game", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ncpo)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
