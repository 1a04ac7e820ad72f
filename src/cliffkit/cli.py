"""Command line interface.

Exit codes: 0 success, 1 a check failed or an obstruction was found,
2 usage or input errors.  All output is deterministic for a fixed seed
(--seed, default 0).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import algebra, cech, groups, reprs, spinors
from .scalars import Signature, format_rational, json_chunks, json_text

USAGE_ERROR = 2
CHECK_FAILED = 1
# largest p + q (or complex N) that compile accepts: --verify reads only the
# generators and omega (n = 18: 0.4 s, 17 MB), and --json streams the n
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


def _parse_sig(text) -> Signature:
    try:
        p, q = (int(x) for x in text.split(","))
        return Signature(p, q)
    except Exception:
        raise ValueError(f"bad signature {text!r}, expected 'p,q'")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _dump_json(chunks, path):
    """Write the JSON text ``chunks`` to ``path``, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def _matrix_strs(mat):
    return [[format_rational(x) for x in row] for row in mat]


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
                   help="re-verify relations and injectivity")
    p.add_argument("--json", metavar="PATH", help="write the model to PATH")
    p.set_defaults(run=_cmd_compile)


def _zeta_args(p):
    p.add_argument("--sig", required=True)
    p.add_argument("--versor", required=True, metavar="FILE",
                   help="JSON list of grade-1 factors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_zeta)


def _decompose_args(p):
    p.add_argument("--sig", required=True)
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_decompose)


def _lift_args(p):
    p.add_argument("--sig", required=True)
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_lift)


def _spinor_args(p):
    p.add_argument("--complex", type=int, dest="complex_dim", required=True, metavar="N")
    p.add_argument("--idempotent", default="auto", metavar="auto|FILE",
                   help="idempotent source (default: the primitive idempotent "
                   "(e + e1)/2 (e + i e2 e3)/2 (e + i e4 e5)/2 ...)")
    p.add_argument("--model", action="store_true",
                   help="also compute the matrix model intertwiner")
    p.add_argument("--json", metavar="PATH", help="write results to PATH")
    p.set_defaults(run=_cmd_spinor)


def _cech_args(p):
    p.set_defaults(run=_cmd_cech)
    csub = p.add_subparsers(dest="cech_command", required=True)
    pb = csub.add_parser("betti", help="dim H^k over Z2")
    pb.add_argument("file", metavar="FILE")
    pb.add_argument("--k", type=int, required=True)
    pc = csub.add_parser("check", help="cocycle condition on all triangles")
    pc.add_argument("file", metavar="FILE")
    pl = csub.add_parser("lift", help="lift a cocycle through zeta")
    pl.add_argument("file", metavar="FILE")
    pl.add_argument("--json", metavar="PATH", help="write lift data to PATH")


def _verify_all_args(p):
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_verify_all)


# each command -> (its help line, the function that adds its arguments), in
# the order the full parser lists them
COMMANDS = {
    "classify": ("matrix ring class of Cl(p,q)", _classify_args),
    "compile": ("exact matrix model of an algebra", _compile_args),
    "zeta": ("pseudo-orthogonal image of a versor", _zeta_args),
    "decompose": ("reflection factorization of a matrix", _decompose_args),
    "lift": ("versor lifting a pseudo-orthogonal matrix", _lift_args),
    "spinor": ("spinor ideal of the complex algebra", _spinor_args),
    "cech": ("Z2 cohomology and Pin lift obstruction", _cech_args),
    "verify-all": ("run every acceptance check", _verify_all_args),
}


def build_parser(argv=None):
    """The parser for ``argv``, or for every command when argv[0] names none.

    When argv[0] names a command, only that command's subparser is added,
    so a cold command builds one parser, not all of them; its subparsers
    action then shows the full choice list as its metavar, so a usage line
    reads as the full parser's.  No arguments, -h, an unknown command and
    --seed before the command get the full parser, whose metavar stays
    unset: argparse names the action "command" in its invalid-choice and
    missing-command errors only then.
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
    if args.complex_dim is not None:
        rep = reprs.compile_complex_rep(n)
    else:
        rep = reprs.compile_rep(Signature(args.p, args.q))
    if args.verify and not rep.verify():
        print(f"{label}: verification FAILED")
        return CHECK_FAILED
    print(f"{label} -> {rep.target}")
    if args.verify:
        print("verified: relations and injectivity exact")
    if args.json:
        _dump_json(reprs.rep_to_json(rep), args.json)
    return 0


def _cmd_zeta(args):
    sig = _parse_sig(args.sig)
    if sig.n > MAX_ZETA_DIM:
        raise ValueError(f"zeta supports p + q up to {MAX_ZETA_DIM}")
    doc = _load_json(args.versor)
    factors_doc = doc["factors"] if isinstance(doc, dict) else doc
    if not isinstance(factors_doc, list):
        raise ValueError("versor JSON must be a list of factors")
    factors = [algebra.multivector_from_json(d, sig) for d in factors_doc]
    g = groups.Versor(sig, factors)
    m = groups.zeta(g)
    if args.json:
        print(json_text(m.to_json()))
    else:
        for row in _matrix_strs(m.mat):
            print(" ".join(row))
    return 0


def _cmd_decompose(args):
    sig = _parse_sig(args.sig)
    m = groups.PseudoOrthogonalMatrix.from_json(_load_json(args.matrix), sig=sig)
    cd = groups.cartan_dieudonne(m)
    if args.json:
        print(json_text({
            "reflections": cd.r,
            "fallbacks": cd.fallback_count,
            "vectors": [algebra.multivector_to_json(w) for w in cd.vectors],
        }))
    else:
        print(f"reflections: {cd.r} (isotropic fallbacks: {cd.fallback_count})")
        for w in cd.vectors:
            print("  " + " ".join(format_rational(x) for x in w.vector_coords()))
    return 0


def _cmd_lift(args):
    sig = _parse_sig(args.sig)
    if sig.n > MAX_LIFT_DIM:
        raise ValueError(f"lift supports p + q up to {MAX_LIFT_DIM}")
    m = groups.PseudoOrthogonalMatrix.from_json(_load_json(args.matrix), sig=sig)
    g = groups.lift_to_pin(m)
    if args.json:
        print(json_text({
            "factors": [algebra.multivector_to_json(v) for v in g.factors],
            "product": algebra.multivector_to_json(g.product),
            "spin": g.is_spin,
        }))
    else:
        print(f"versor with {len(g.factors)} factors "
              f"({'even' if g.is_spin else 'odd'})")
        print(f"product: {g.product!r}")
    return 0


def _cmd_spinor(args):
    n = args.complex_dim
    if n > MAX_SPINOR_DIM:
        raise ValueError(f"C({n}): spinor supports N up to {MAX_SPINOR_DIM}")
    if args.idempotent == "auto":
        idem = spinors.primitive_idempotent(n)
    else:
        s = algebra.multivector_from_json(_load_json(args.idempotent), n)
        idem = spinors.make_idempotent(s)
    space = spinors.left_ideal(idem)
    minimal = spinors.is_minimal(space)
    print(f"ideal dimension: {space.dim} "
          f"({'minimal' if minimal else 'not minimal'})")
    doc = {
        "n": n,
        "idempotent": algebra.multivector_to_json(idem.p),
        "dimension": space.dim,
        "minimal": minimal,
    }
    if args.model:
        if not minimal:
            print("matrix model requires a minimal ideal")
            return CHECK_FAILED
        model = spinors.spinor_matrix_model(space)
        print(f"matrix model: {model.rep.target}, intertwiner found")
        doc["model_target"] = model.rep.target.to_json()
    if args.json:
        _dump_json((json_text(doc),), args.json)
    return 0


def _cech_size(complex_doc):
    """The vertices plus every listed simplex of a complex document, read
    before it is validated: malformed parts count 0 and are refused later."""
    if not isinstance(complex_doc, dict):
        return 0
    vertices = complex_doc.get("vertices")
    size = vertices if isinstance(vertices, int) else 0
    simplices = complex_doc.get("simplices")
    if isinstance(simplices, dict):
        size += sum(len(s) for s in simplices.values() if isinstance(s, list))
    return size


def _lift_texts(lifts):
    """The {"e", "product"} item of each edge of the lift document, in edge
    order, as ``json_chunks`` takes it.  Edges share few products, so each
    distinct product is rendered once; resigned edges hold new versors, so
    the cache is keyed by the product itself."""
    texts = {}
    for (i, j), v in sorted(lifts.items()):
        text = texts.get(v.product)
        if text is None:
            text = json_text(algebra.multivector_to_json(v.product)).replace("\n", "\n      ")
            texts[v.product] = text
        yield f'{{\n      "e": [\n        {i},\n        {j}\n      ],\n      "product": {text}\n    }}'


def _cmd_cech(args):
    doc = _load_json(args.file)
    if not isinstance(doc, dict):
        raise ValueError("cech input must be a JSON object")
    complex_doc = doc.get("complex", doc)
    if _cech_size(complex_doc) > MAX_CECH_SIMPLICES:
        raise ValueError(f"cech supports up to {MAX_CECH_SIMPLICES} simplices, vertices included")
    if args.cech_command == "betti":
        c = cech.Complex.from_json(complex_doc)
        print(cech.z2_betti(c, args.k))
        return 0
    coc = cech.GroupCocycle.from_json(doc)
    if args.cech_command == "check":
        ok, tri = cech.check_cocycle(coc)
        if ok:
            print("cocycle condition holds on all triangles")
            return 0
        print(f"cocycle condition fails on triangle {list(tri)}")
        return CHECK_FAILED
    res = cech.pin_lift_cocycle(coc)
    if res.success:
        # 2^dim H^1 as a power: in decimal it can pass Python's 4,300 digits
        h1_dim = res.lift_count.bit_length() - 1
        print(f"lift exists: 2^{h1_dim} inequivalent lifts")
        if args.json:
            _dump_json(json_chunks({"success": True, "h1_dim": h1_dim}, "lifts", _lift_texts(res.lifts)),
                       args.json)
        return 0
    bad = sorted(t for t, b in res.discrepancy.values.items() if b)
    print("no lift: obstruction class in H^2 is nonzero")
    print(f"discrepancy supported on triangles: {[list(t) for t in bad]}")
    if args.json:
        _dump_json((json_text({
            "success": False,
            "obstruction_triangles": [list(t) for t in bad],
        }),), args.json)
    return CHECK_FAILED


def _cmd_verify_all(args):
    from . import verify  # with the sampling it draws from: loaded for this command only
    results = verify.run_all(seed=args.seed)
    if args.json:
        print(json_text({"seed": args.seed, "results": results}))
    else:
        for r in results:
            verdict = "pass" if r["ok"] else "FAIL"
            print(f"{r['name']}: {verdict} [{r['seconds']}s] {r['detail']}")
    return 0 if all(r["ok"] for r in results) else CHECK_FAILED


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
