"""Command-line front end.

Exit codes: 0 success, 1 property refuted (not equivalent, not a member,
isolation refuted, ...), 2 malformed input or validation failure.  Numeric
output is printed with 12 significant digits.

The commands are one table, `COMMANDS`.  Each call builds, from it, the parser
of the invoked command only (one subparser, and one nested one for `la`,
`lang`, `mc` and `rs`); help before the command and a missing or unknown
command get the full parser, so help and errors read as the full parser's.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import io as pio, kernel
from .dfa import dfa_minimize, dfa_to_dot
from .generalpa import GeneralPA, reaction, reduce as reduce_general
from .languages import (
    POSITIVE_WORD_STABLE,
    STABLE_ALL,
    definite_rep,
    enumerate_members,
    ergodic_test,
    extract_dfa,
    extraction_state_bound,
    isolation_scan,
    member,
    shift_cutpoint,
    stability_check,
)
from .linauto import (
    LinearAutomaton,
    StringFunctionTable,
    e_f_dimension,
    la_convolution,
    la_iterate,
    la_language_pa,
    la_product,
    la_reverse,
    la_scale,
    la_sum,
    la_to_pa_affine,
    la_to_rational_expr,
    realize,
    to_sexpr,
)
from .moorepa import MoorePA, avg_reaction, reduce_avg
from .sequences import MarkovChain, RandomSequence, mc_function, transform
from .tolerances import DEFAULT, Tolerances


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def fmt_word(u) -> str:
    if not u:
        return "ε"
    if all(len(s) == 1 for s in u):
        return "".join(u)
    return " ".join(u)


class CliError(ValueError):
    """An argument the command line itself rejects; `main` reports it like a library error."""


def _load(path: str, tol: Tolerances, *kinds):
    """Load `path`, and check that it holds one of `kinds` when any are given."""
    try:
        obj = pio.load(path, tol)
    except pio.SchemaError:
        raise
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    if kinds and not isinstance(obj, kinds):
        wanted = ", ".join(pio.KIND_OF[k] for k in kinds)
        raise CliError(f"{path}: expected kind {wanted}, got {pio.KIND_OF[type(obj)]}")
    return obj


def _word(text: str, option: str, alphabet):
    """The word given as `option`; a symbol outside the alphabet is an error naming the option."""
    try:
        return pio.parse_word(text, alphabet)
    except ValueError as exc:
        raise CliError(f"{option}: {exc}") from None


def cmd_validate(args) -> int:
    obj = _load(args.file, args.tol)
    detail = f" states={obj.n_states}" if hasattr(obj, "n_states") else ""
    print(f"ok: kind={pio.KIND_OF[type(obj)]}{detail}")
    return 0


def cmd_react(args) -> int:
    obj = _load(args.file, args.tol, GeneralPA, MoorePA, LinearAutomaton)
    u = _word(args.input, "--input", obj.inputs)
    if isinstance(obj, GeneralPA):
        if args.output is None:
            raise CliError("general_pa reactions need --output")
        print(fmt(reaction(obj, u, _word(args.output, "--output", obj.outputs))))
    else:
        print(fmt(avg_reaction(obj, u)))  # la_reaction is the same function
    return 0


def cmd_reduce(args) -> int:
    obj = _load(args.file, args.tol, GeneralPA, MoorePA)
    reduced = (reduce_general if isinstance(obj, GeneralPA) else reduce_avg)(obj, args.tol)
    pio.save(reduced, args.output)
    print(f"states: {obj.n_states} -> {reduced.n_states}")
    return 0


def cmd_equiv(args) -> int:
    a = _load(args.a, args.tol)
    b = _load(args.b, args.tol)
    if type(a) is not type(b):
        raise CliError("cannot compare automata of different kinds")
    if not isinstance(a, kernel.Automaton):
        raise CliError("equiv supports general_pa, moore_pa and linear_automaton")
    same = kernel.equivalent(a, b, args.tol)  # what each kind's public test calls
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def cmd_lang_member(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    hit = member(a, args.cutpoint, _word(args.input, "--input", a.inputs))
    print("member" if hit else "not member")
    return 0 if hit else 1


def cmd_lang_enum(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    for u in enumerate_members(a, args.cutpoint, args.max_len):
        print(fmt_word(u))
    return 0


def cmd_lang_shift(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    shifted = shift_cutpoint(a, args.src_cut, args.dst_cut)
    pio.save(shifted, args.output)
    print(f"cutpoint: {fmt(args.src_cut)} -> {fmt(args.dst_cut)}; states: "
          f"{a.n_states} -> {shifted.n_states}")
    return 0


def cmd_isolate(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    report = isolation_scan(a, args.cutpoint, args.delta, args.max_len)
    if report.refuted:
        print(f"refuted: u={fmt_word(report.witness)} f={fmt(report.witness_value)}")
        return 1
    print(f"clear up to {report.max_len} (delta={fmt(report.delta)})")
    return 0


def cmd_extract_dfa(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    raw = extract_dfa(a, args.cutpoint, args.delta, minimize=False)
    minimized = dfa_minimize(raw)
    bound = extraction_state_bound(a.n_states, args.delta)
    print(f"states: raw={raw.n_states} minimized={minimized.n_states} bound={fmt(bound)}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dfa_to_dot(minimized))
    if args.output:
        pio.save(minimized, args.output)
    return 0


def cmd_ergodic(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    ok, witness = ergodic_test(a, args.tol)
    if ok:
        print("ergodic")
        return 0
    print(f"not ergodic (witness: {witness})")
    return 1


def cmd_stable(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    report = stability_check(a, args.tol)
    if report.status == STABLE_ALL:
        print("stable (all letter matrices contract)")
        return 0
    if report.status == POSITIVE_WORD_STABLE:
        print(f"stable (positive words, l={report.word_length})")
        return 0
    print("unknown")
    return 1


def cmd_definite(args) -> int:
    a = _load(args.file, args.tol, MoorePA)
    try:
        rep = definite_rep(a, args.cutpoint, args.delta, tol=args.tol)
    except AssertionError as exc:  # not suffix-determined at this delta
        raise CliError(str(exc)) from None
    if rep is None:
        print("not derivable (needs positive matrices or ergodicity)")
        return 1
    accepting = sum(1 for v in rep.suffix_table.values() if v)
    print(f"definite k={rep.k} suffix-classes={len(rep.suffix_table)} accepting={accepting}")
    return 0


LA_BINARY = {"conv": la_convolution, "prod": la_product, "sum": la_sum}
LA_UNARY = {  # each on the operand and the parsed arguments
    "iter": lambda a, args: la_iterate(a, args.tol),
    "rev": lambda a, args: la_reverse(a),
    "scale": lambda a, args: la_scale(args.scalar, a),
}


def cmd_la_op(args) -> int:
    a = _load(args.a, args.tol, LinearAutomaton)
    if args.op in LA_BINARY:
        if args.b is None:
            raise CliError(f"la op {args.op} needs two operands")
        out = LA_BINARY[args.op](a, _load(args.b, args.tol, LinearAutomaton))
    else:
        if args.op == "scale" and args.scalar is None:
            raise CliError("la op scale needs --scalar")
        out = LA_UNARY[args.op](a, args)
    pio.save(out, args.output)
    print(f"dim: {out.dim}")
    return 0


def cmd_la_realize(args) -> int:
    table = _load(args.file, args.tol, StringFunctionTable)
    out = realize(table, tol=args.tol)
    pio.save(out, args.output)
    print(f"dim: {out.dim}")
    return 0


def cmd_la_rank(args) -> int:
    table = _load(args.file, args.tol, StringFunctionTable)
    print(e_f_dimension(table, tol=args.tol))
    return 0


def cmd_la_expr(args) -> int:
    a = _load(args.file, args.tol, LinearAutomaton)
    print(to_sexpr(la_to_rational_expr(a)))
    return 0


def cmd_la_embed_pa(args) -> int:
    a = _load(args.file, args.tol, LinearAutomaton)
    pa, scale = la_to_pa_affine(a, args.tol)
    pio.save(pa, args.output)
    print(f"states: {pa.n_states} scale: {fmt(scale)} offset: {fmt(1.0 / (a.dim + 2))}")
    return 0


def cmd_la_lang_pa(args) -> int:
    a = _load(args.file, args.tol, LinearAutomaton)
    pa, cut = la_language_pa(a, args.cutpoint, args.tol)
    pio.save(pa, args.output)
    print(f"states: {pa.n_states} cutpoint: {fmt(cut)}")
    return 0


def cmd_mc_eval(args) -> int:
    chain = _load(args.file, args.tol, MarkovChain)
    print(fmt(mc_function(chain, _word(args.input, "--input", chain.signals))))
    return 0


def cmd_rs_transform(args) -> int:
    zeta = _load(args.seq, args.tol, RandomSequence)
    image = transform(zeta, _load(args.pa, args.tol, GeneralPA))
    pio.save(image, args.output)
    print(f"depth: {image.depth}")
    return 0


def arg(*flags, **options):
    """One `add_argument` call of the command table."""
    return flags, options


FILE, INPUT = arg("file"), arg("--input", required=True)
OUTPUT = arg("-o", "--output", required=True)
CUTPOINT = arg("--cutpoint", type=float, required=True)
DELTA = arg("--delta", type=float, required=True)

# name -> (help or None, handler, arguments...), or (help, nested table), whose
# command name is parsed into `<name>_command`.
COMMANDS = {
    "validate": ("check a JSON automaton file", cmd_validate, FILE),
    "react": ("evaluate a reaction", cmd_react, FILE, INPUT, arg("--output", default=None)),
    "reduce": ("equivalent automaton with fewer states", cmd_reduce, FILE, OUTPUT),
    "equiv": ("decide equality of reactions", cmd_equiv, arg("a"), arg("b")),
    "lang": ("cut-point languages", {
        "member": (None, cmd_lang_member, FILE, CUTPOINT, INPUT),
        "enum": (None, cmd_lang_enum, FILE, CUTPOINT, arg("--max-len", type=int, default=4)),
        "shift": (None, cmd_lang_shift, FILE,
                  arg("--from", dest="src_cut", type=float, required=True),
                  arg("--to", dest="dst_cut", type=float, required=True), OUTPUT),
    }),
    "isolate": ("bounded isolation scan", cmd_isolate, FILE, CUTPOINT, DELTA,
                arg("--max-len", type=int, required=True)),
    "extract-dfa": ("regular language under isolation", cmd_extract_dfa, FILE, CUTPOINT, DELTA,
                    arg("--dot", default=None), arg("-o", "--output", default=None)),
    "ergodic": ("ergodicity criterion", cmd_ergodic, FILE),
    "stable": ("stability of isolated cut points", cmd_stable, FILE),
    "definite": ("suffix-determined representation", cmd_definite, FILE, CUTPOINT, DELTA),
    "la": ("linear automata", {
        "op": (None, cmd_la_op, arg("op", choices=[*LA_BINARY, *LA_UNARY]), arg("a"),
               arg("b", nargs="?", default=None), arg("--scalar", type=float, default=None),
               OUTPUT),
        "realize": (None, cmd_la_realize, FILE, OUTPUT),
        "rank": (None, cmd_la_rank, FILE),
        "expr": (None, cmd_la_expr, FILE),
        "embed-pa": (None, cmd_la_embed_pa, FILE, OUTPUT),
        "lang-pa": (None, cmd_la_lang_pa, FILE, CUTPOINT, OUTPUT),
    }),
    "mc": ("Markov chains", {"eval": (None, cmd_mc_eval, FILE, INPUT)}),
    "rs": ("random sequences", {
        "transform": (None, cmd_rs_transform, arg("seq"), arg("pa"), OUTPUT),
    }),
}


def _add_commands(parser, table, dest, path) -> None:
    """Add the commands of `table` to `parser`: only `path[0]` when the path names one.

    A partial level shows the full choice string as its metavar, so that its usage
    and error lines read as the full parser's."""
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{%s}" % ",".join(table) if path else None)
    for name in path[:1] or table:
        text, run, *args = table[name]
        p = sub.add_parser(name, **({} if text is None else {"help": text}))
        if isinstance(run, dict):
            _add_commands(p, run, f"{name}_command", path[1:])
            continue
        for flags, options in args:
            p.add_argument(*flags, **options)
        p.set_defaults(func=run)


def build_parser(path=()) -> argparse.ArgumentParser:
    """The parser of `COMMANDS`; a `path` of command names builds only their parsers."""
    parser = argparse.ArgumentParser(
        prog="probautomata",
        description="Probabilistic, weighted and cut-point automata toolkit",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None, metavar="EPS",
        help="override every numeric tolerance with EPS, 0 < EPS < 0.1",
    )
    _add_commands(parser, COMMANDS, "command", path)
    return parser


def _invoked(argv) -> tuple[str, ...]:
    """The command names `argv` invokes, as far as the table knows them.

    Help or another option before the command, and a missing or unknown command,
    give (): only the full parser answers those as argparse does."""
    rest = list(argv)
    while rest and rest[0].startswith("-"):
        flag, eq, _ = rest.pop(0).partition("=")
        if len(flag) < 3 or not "--tolerance".startswith(flag):
            return ()
        if not eq and rest:
            rest.pop(0)  # the value, whatever it looks like
    path, table = (), COMMANDS
    while rest and isinstance(table, dict) and rest[0] in table:
        path += (rest[0],)
        table = table[rest.pop(0)][1]
    return path


def main(argv=None) -> int:
    """Run one command; a `ValueError` or a file it cannot open is one `error:` line and exit 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_invoked(argv)).parse_args(argv)
    eps = args.tolerance
    try:
        if eps is not None and not 0 < eps < math.inf:  # NaN fails both comparisons
            raise CliError("tolerance must be positive and finite")
        if eps is not None and eps >= 0.1:  # 10 eps >= 1: no relative difference refutes
            raise CliError("tolerance must be below 0.1")
        args.tol = DEFAULT if eps is None else Tolerances(zero=eps, rel=eps)
        return args.func(args)
    except ValueError as exc:
        message = str(exc)
    except OSError as exc:  # a missing file, a directory given as a file, a missing folder
        message = f"{exc.filename}: {exc.strerror.lower()}"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
