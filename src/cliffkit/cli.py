"""Command line interface.

Exit codes: 0 success, 1 a check failed or an obstruction was found,
2 usage or input errors.  All output is deterministic for a fixed seed
(--seed, default 0).

This module holds ``main``, the parser, every command's help line and
size bound, and the two model commands, ``classify`` and ``compile``.  The
arguments and handlers of the six commands that no compile runs (``zeta``,
``decompose``, ``lift``, ``spinor``, ``cech`` and ``verify-all``) are in
``commands``, which ``build_parser`` imports only when it adds one of
them, so a cold compile or classify never compiles them.
"""

from __future__ import annotations

import argparse
import sys

from . import reprs
from .scalars import Signature, dump_json, json_text

USAGE_ERROR = 2
CHECK_FAILED = 1
# largest p + q (or complex N) that compile accepts: its one proof of the
# model reads only the generators and omega, and --verify reports it rather
# than proving it again (n = 18: 0.16-0.19 s, 16.5 MB); --json streams the n
# generators as text straight off the monomial form: compile 18 0 and
# compile --complex 18 with --verify --json write 61 MB in 0.4-0.5 s and
# 31-34 MB; an H target writes each entry as a list, and compile 0 18
# writes 94 MB in 0.4-0.5 s and 41 MB (Python 3.11, 2 CPUs)
MAX_COMPILE_DIM = 18
# largest N that spinor accepts, with or without --model: the ideal is
# eliminated on sparse integer rows and the model reads U off the monomial
# columns; N = 12 takes about 0.6 s and 32 MB with or without --model, and
# (e + e1)/2, eliminated from the 2^N rows e_b p, 0.4 s and 20 MB (Python
# 3.11, 2 CPUs)
MAX_SPINOR_DIM = 12
# largest p + q that classify accepts: it prints the matrix size 2^(n/2) in full
MAX_CLASSIFY_DIM = 4096
# largest p + q that zeta accepts, checked before a factor is read: each
# factor is a length-n vector and zeta builds n columns of length n; one
# factor at n = 512 takes 0.7 s and 49 MB (Python 3.11, 2 CPUs)
MAX_ZETA_DIM = 512
# largest p + q that lift accepts, checked before the matrix is read: it
# prints the versor product, of up to 2^(n-1) terms; on a random O(n,0)
# matrix it takes 0.14 s at n = 12, 0.43 s at n = 14, 1.7-2.0 s and 35 MB
# at n = 16 (84 MB with --json) and 7.8 s and 86 MB at n = 18, and about 4x
# more for each further step of 2 (Python 3.11, 2 CPUs)
MAX_LIFT_DIM = 16
# most vertices plus listed simplices that the cech commands accept, checked
# before the complex is built: on the 100 x 100 grid torus (60,000
# simplices) betti --k 1 takes 0.6-0.9 s and 145 MB, check 1.3-1.6 s and
# 72 MB, and lift of a rotation-valued coboundary 2.0-2.7 s and 185 MB;
# --json adds about 0.1 s, as it renders each of the 21 distinct products
# once (wall time and peak RSS of the child process; Python 3.11, 2 CPUs)
MAX_CECH_SIMPLICES = 60_000


def _classify_args(p):
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_classify)


def _compile_args(p):
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--complex", type=int, dest="complex_dim", metavar="N",
                   help="compile the complexified algebra of dimension N")
    p.add_argument("--verify", action="store_true",
                   help="report the compile's proof of relations and injectivity")
    p.add_argument("--json", metavar="PATH", help="write the model to PATH")
    p.set_defaults(run=_cmd_compile)


# each command -> (its help line, the function that adds its arguments, or
# the name of that function in ``commands``), in the order the full parser
# lists them
COMMANDS = {
    "classify": ("matrix ring class of Cl(p,q)", _classify_args),
    "compile": ("exact matrix model of an algebra", _compile_args),
    "zeta": ("pseudo-orthogonal image of a versor", "_zeta_args"),
    "decompose": ("reflection factorization of a matrix", "_decompose_args"),
    "lift": ("versor lifting a pseudo-orthogonal matrix", "_lift_args"),
    "spinor": ("spinor ideal of the complex algebra", "_spinor_args"),
    "cech": ("Z2 cohomology and Pin lift obstruction", "_cech_args"),
    "verify-all": ("run every acceptance check", "_verify_all_args"),
}


def build_parser(argv=None):
    """The parser for ``argv``, or for every command when argv[0] names none.

    When argv[0] names a command, only that command's subparser is added,
    so a cold command builds one parser, not all of them; its subparsers
    action then shows the full choice list as its metavar, so a usage line
    reads as the full parser's.  No arguments, -h, an unknown command and
    --seed before the command get the full parser, whose metavar stays
    unset: argparse names the action "command" in its invalid-choice and
    missing-command errors only then.  The six commands whose arguments
    are in ``commands`` load that module only when their subparser is added.
    """
    ap = argparse.ArgumentParser(
        prog="cliffkit",
        description="Exact Clifford algebra workbench: matrix models, "
        "Pin/Spin lifting, spinor ideals and Cech Z2 obstructions.",
    )
    ap.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    names, metavar = list(COMMANDS), None
    if argv and argv[0] in COMMANDS:
        names, metavar = argv[:1], "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_args = COMMANDS[name]
        if isinstance(add_args, str):
            from . import commands  # loaded for those six commands only
            add_args = getattr(commands, add_args)
        add_args(sub.add_parser(name, help=help_line))
    return ap


def _cmd_classify(args):
    if args.p + args.q > MAX_CLASSIFY_DIM:
        raise ValueError(f"classify supports p + q up to {MAX_CLASSIFY_DIM}")
    t = reprs.classify(Signature(args.p, args.q))
    if args.json:
        print(json_text({"signature": [args.p, args.q], "target": t.to_json()}))
    else:
        print(t)
    return 0


def _cmd_compile(args):
    if args.complex_dim is not None:
        if args.p is not None:
            raise ValueError("compile takes p q or --complex N, not both")
        n, label = args.complex_dim, f"C({args.complex_dim})"
    elif args.p is None or args.q is None:
        raise ValueError("compile needs p q or --complex N")
    else:
        n, label = args.p + args.q, f"Cl({args.p},{args.q})"
    if n > MAX_COMPILE_DIM:
        raise ValueError(f"{label}: compile supports p + q (or N) up to {MAX_COMPILE_DIM}")
    # the compile proves the model it returns, and raises AssertionError
    # before it caches one that fails: --verify reports that proof
    try:
        if args.complex_dim is not None:
            rep = reprs.compile_complex_rep(n)
        else:
            rep = reprs.compile_rep(Signature(args.p, args.q))
    except AssertionError:
        print(f"{label}: verification FAILED")
        return CHECK_FAILED
    print(f"{label} -> {rep.target}")
    if args.verify:
        print("verified: relations and injectivity exact")
    if args.json:
        dump_json(reprs.rep_to_json(rep), args.json)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.run(args)
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
