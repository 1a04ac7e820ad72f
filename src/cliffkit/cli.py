"""Command line interface.

Exit codes: 0 success, 1 a check failed or an obstruction was found,
2 usage or input errors.  All output is deterministic for a fixed seed
(--seed, falling back to the CLIFFKIT_SEED environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cech as cech_mod
from .algebra import (
    Signature,
    multivector_from_json,
    multivector_to_json,
)
from .groups import PseudoOrthogonalMatrix, Versor, cartan_dieudonne, lift_to_pin, zeta
from .reprs import classify, compile_complex_rep, compile_rep, rep_to_json
from .scalars import format_rational
from .spinors import (
    is_minimal,
    left_ideal,
    make_idempotent,
    primitive_idempotent,
    spinor_matrix_model,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
# largest p + q (or complex N) that compile accepts: --verify reads only the
# generators and omega (n = 18: 0.4 s, 17 MB), and --json writes the n
# generators straight off the monomial form, so the JSON encoder dominates:
# compile 18 0 and compile --complex 18 with --verify --json write 61 MB in
# 2.4-3.0 s and 53 MB; an H target writes each entry as a list, and
# compile 0 18 writes 94 MB in 6.2 s and 134 MB (Python 3.11, 2 CPUs)
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
# most vertices that the cech commands accept, checked before the complex is
# built: {"vertices": 100000} alone takes 0.1-0.25 s and 17-36 MB for betti,
# check and lift (Python 3.11, 2 CPUs)
MAX_CECH_VERTICES = 100_000


def _parse_sig(text) -> Signature:
    try:
        p, q = (int(x) for x in text.split(","))
        return Signature(p, q)
    except Exception:
        raise ValueError(f"bad signature {text!r}, expected 'p,q'")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _matrix_strs(mat):
    return [[format_rational(x) for x in row] for row in mat]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cliffkit",
        description="Exact Clifford algebra workbench: matrix models, "
        "Pin/Spin lifting, spinor ideals and Cech Z2 obstructions.",
    )
    ap.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: CLIFFKIT_SEED or 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="matrix ring class of Cl(p,q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("compile", help="exact matrix model of an algebra")
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--complex", type=int, dest="complex_dim", metavar="N",
                   help="compile the complexified algebra of dimension N")
    p.add_argument("--verify", action="store_true",
                   help="re-verify relations and injectivity")
    p.add_argument("--json", metavar="PATH", help="write the model to PATH")
    p.set_defaults(run=_cmd_compile)

    p = sub.add_parser("zeta", help="pseudo-orthogonal image of a versor")
    p.add_argument("--sig", required=True)
    p.add_argument("--versor", required=True, metavar="FILE",
                   help="JSON list of grade-1 factors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_zeta)

    p = sub.add_parser("decompose", help="reflection factorization of a matrix")
    p.add_argument("--sig", required=True)
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("lift", help="versor lifting a pseudo-orthogonal matrix")
    p.add_argument("--sig", required=True)
    p.add_argument("--matrix", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_lift)

    p = sub.add_parser("spinor", help="spinor ideal of the complex algebra")
    p.add_argument("--complex", type=int, dest="complex_dim", required=True, metavar="N")
    p.add_argument("--idempotent", default="auto", metavar="auto|FILE",
                   help="idempotent source (default: the primitive idempotent "
                   "(e + e1)/2 (e + i e2 e3)/2 (e + i e4 e5)/2 ...)")
    p.add_argument("--model", action="store_true",
                   help="also compute the matrix model intertwiner")
    p.add_argument("--json", metavar="PATH", help="write results to PATH")
    p.set_defaults(run=_cmd_spinor)

    p = sub.add_parser("cech", help="Z2 cohomology and Pin lift obstruction")
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

    p = sub.add_parser("verify-all", help="run every acceptance check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_verify_all)

    return ap


def _cmd_classify(args):
    if args.p + args.q > MAX_CLASSIFY_DIM:
        raise ValueError(f"classify supports p + q up to {MAX_CLASSIFY_DIM}")
    t = classify(Signature(args.p, args.q))
    if args.json:
        _print_json({"signature": [args.p, args.q], "target": t.to_json()})
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
        rep = compile_complex_rep(n)
    else:
        rep = compile_rep(Signature(args.p, args.q))
    if args.verify and not rep.verify():
        print(f"{label}: verification FAILED")
        return CHECK_FAILED
    print(f"{label} -> {rep.target}")
    if args.verify:
        print("verified: relations and injectivity exact")
    if args.json:
        _dump_json(rep_to_json(rep), args.json)
    return 0


def _cmd_zeta(args):
    sig = _parse_sig(args.sig)
    if sig.n > MAX_ZETA_DIM:
        raise ValueError(f"zeta supports p + q up to {MAX_ZETA_DIM}")
    doc = _load_json(args.versor)
    factors_doc = doc["factors"] if isinstance(doc, dict) else doc
    if not isinstance(factors_doc, list):
        raise ValueError("versor JSON must be a list of factors")
    factors = [multivector_from_json(d, sig) for d in factors_doc]
    g = Versor(sig, factors)
    m = zeta(g)
    if args.json:
        _print_json(m.to_json())
    else:
        for row in _matrix_strs(m.mat):
            print(" ".join(row))
    return 0


def _cmd_decompose(args):
    sig = _parse_sig(args.sig)
    m = PseudoOrthogonalMatrix.from_json(_load_json(args.matrix), sig=sig)
    cd = cartan_dieudonne(m)
    if args.json:
        _print_json({
            "reflections": cd.r,
            "fallbacks": cd.fallback_count,
            "vectors": [multivector_to_json(w) for w in cd.vectors],
        })
    else:
        print(f"reflections: {cd.r} (isotropic fallbacks: {cd.fallback_count})")
        for w in cd.vectors:
            print("  " + " ".join(format_rational(x) for x in w.vector_coords()))
    return 0


def _cmd_lift(args):
    sig = _parse_sig(args.sig)
    m = PseudoOrthogonalMatrix.from_json(_load_json(args.matrix), sig=sig)
    g = lift_to_pin(m)
    if args.json:
        _print_json({
            "factors": [multivector_to_json(v) for v in g.factors],
            "product": multivector_to_json(g.product),
            "spin": g.is_spin,
        })
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
        idem = primitive_idempotent(n)
    else:
        s = multivector_from_json(_load_json(args.idempotent), n)
        idem = make_idempotent(s)
    space = left_ideal(idem)
    minimal = is_minimal(space)
    print(f"ideal dimension: {space.dim} "
          f"({'minimal' if minimal else 'not minimal'})")
    doc = {
        "n": n,
        "idempotent": multivector_to_json(idem.p),
        "dimension": space.dim,
        "minimal": minimal,
    }
    if args.model:
        if not minimal:
            print("matrix model requires a minimal ideal")
            return CHECK_FAILED
        model = spinor_matrix_model(space)
        print(f"matrix model: {model.rep.target}, intertwiner found")
        doc["model_target"] = model.rep.target.to_json()
    if args.json:
        _dump_json(doc, args.json)
    return 0


def _cmd_cech(args):
    doc = _load_json(args.file)
    if not isinstance(doc, dict):
        raise ValueError("cech input must be a JSON object")
    complex_doc = doc.get("complex", doc)
    vertices = complex_doc.get("vertices") if isinstance(complex_doc, dict) else None
    if isinstance(vertices, int) and vertices > MAX_CECH_VERTICES:
        raise ValueError(f"cech supports up to {MAX_CECH_VERTICES} vertices")
    if args.cech_command == "betti":
        c = cech_mod.Complex.from_json(complex_doc)
        print(cech_mod.z2_betti(c, args.k))
        return 0
    coc = cech_mod.GroupCocycle.from_json(doc)
    if args.cech_command == "check":
        ok, tri = cech_mod.check_cocycle(coc)
        if ok:
            print("cocycle condition holds on all triangles")
            return 0
        print(f"cocycle condition fails on triangle {list(tri)}")
        return CHECK_FAILED
    res = cech_mod.pin_lift_cocycle(coc)
    if res.success:
        print(f"lift exists: {res.lift_count} inequivalent lifts")
        if args.json:
            _dump_json({
                "success": True,
                "lift_count": res.lift_count,
                "lifts": [
                    {"e": list(e), "product": multivector_to_json(v.product)}
                    for e, v in sorted(res.lifts.items())
                ],
            }, args.json)
        return 0
    bad = sorted(t for t, b in res.discrepancy.values.items() if b)
    print("no lift: obstruction class in H^2 is nonzero")
    print(f"discrepancy supported on triangles: {[list(t) for t in bad]}")
    if args.json:
        _dump_json({
            "success": False,
            "obstruction_triangles": [list(t) for t in bad],
        }, args.json)
    return CHECK_FAILED


def _cmd_verify_all(args):
    from . import verify  # with the sampling it draws from: loaded for this command only
    results = verify.run_all(seed=args.seed)
    if args.json:
        _print_json({"seed": args.seed, "results": results})
    else:
        for r in results:
            verdict = "pass" if r["ok"] else "FAIL"
            print(f"{r['name']}: {verdict} [{r['seconds']}s] {r['detail']}")
    return 0 if all(r["ok"] for r in results) else CHECK_FAILED


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.seed is None:
        try:
            args.seed = int(os.environ.get("CLIFFKIT_SEED", "0"))
        except ValueError:
            print("error: CLIFFKIT_SEED must be an integer", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
