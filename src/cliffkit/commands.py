"""The command line commands that no model compile runs: ``zeta``,
``decompose``, ``lift``, ``spinor``, ``cech`` and ``verify-all``.

``cli.build_parser`` imports this module only when it adds one of their
subparsers, and finds each one's argument builder here by the name that
``cli.COMMANDS`` gives next to its help line.  ``cli`` keeps ``main``, the
help lines, the exit codes and every size bound, which this module reads
from it; ``cli`` never imports this module while it loads, so either can
be imported first.  The layers are bound here as module objects, so
importing this module runs none of them: each command runs only the
layers it calls.
"""

from __future__ import annotations

import json

from . import algebra, cech, groups, spinors
from .cli import CHECK_FAILED, MAX_CECH_SIMPLICES, MAX_LIFT_DIM, MAX_SPINOR_DIM, MAX_ZETA_DIM
from .scalars import Signature, dump_json, format_rational, json_chunks, json_text


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
        for row in m.to_json()["matrix"]:
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
        dump_json((json_text(doc),), args.json)
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
    order, as ``json_chunks`` takes it.  Edges share few versors, one per
    distinct matrix and sign, so each versor's product is rendered once: the
    cache is keyed by the versor, and the text depends on its product only."""
    texts = {}
    for (i, j), v in sorted(lifts.items()):
        text = texts.get(v)
        if text is None:
            text = json_text(algebra.multivector_to_json(v.product)).replace("\n", "\n      ")
            texts[v] = text
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
            dump_json(json_chunks({"success": True, "h1_dim": h1_dim}, "lifts", _lift_texts(res.lifts)),
                       args.json)
        return 0
    bad = sorted(t for t, b in res.discrepancy.values.items() if b)
    print("no lift: obstruction class in H^2 is nonzero")
    print(f"discrepancy supported on triangles: {[list(t) for t in bad]}")
    if args.json:
        dump_json((json_text({
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
