"""The three benchmark workloads: seeded inputs, timed ops, exact checks.

A workload yields blocks of ops.  A block has a fixed composition by op kind
and size class, and a run is a whole number of blocks (rounds), so two seeds
differ in the values drawn but not in the mix.  ``ROUND_SECONDS`` is a
block's op time at the commit that defined the benchmark; a run has
round(--seconds / ROUND_SECONDS) rounds, a count that does not change when
the code gets faster or slower, so every run of a workload has the same
number of latency samples.  Every op has a ``run`` (the timed
call into cliffkit, including building cliffkit objects from the generated
raw inputs) and a ``check`` that judges the output with ``refmath`` only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import refmath as rm
from pin import OUT_DIR, ROOT, child_env
from speed import C_REF

CHILD = Path(__file__).resolve().parent / "cli_child.py"


class Op:
    """One timed call.  ``slot`` is the op's place in its block: the ops that
    fill one slot in successive rounds share a kind and size class."""

    __slots__ = ("kind", "run", "check", "slot")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check
        self.slot = None


def numbered(rng, block):
    """Give each op its slot number, then shuffle the block."""
    for slot, op in enumerate(block):
        op.slot = slot
    rng.shuffle(block)
    return block


class InProcess:
    """A workload whose ops run in this process."""

    in_process = True
    trace_blocks = 1

    @staticmethod
    def self_timed(out):
        """Seconds at reference speed that the op measured itself: none here."""
        return None


class Bag:
    """Draw without replacement, refilling with a fresh shuffle when empty,
    so every value of ``items`` comes up equally often over a run."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _mv_dict(mv):
    """Own copy of a cliffkit multivector's terms."""
    out = {}
    for b, c in mv.terms.items():
        out[b] = rm.Gauss(c.re, c.im) if hasattr(c, "im") else Fraction(c)
    return out


def _adjoint_matches(g, m, p, n):
    """g e_a = (M e_a) g for every basis vector: zeta(g) = M without g^-1."""
    for a in range(n):
        left = rm.mv_mul(g, {1 << a: Fraction(1)}, p)
        image = rm.mv_vector([m[i][a] for i in range(n)])
        if not rm.mv_equal(left, rm.mv_mul(image, g, p)):
            return False
    return True


def _versor_matches(versor, m, p, n):
    """A returned Versor is a product of anisotropic vectors mapping onto M."""
    eta = rm.eta_diag(p, n - p)
    prod = {0: Fraction(1)}
    for f in versor.factors:
        v = _mv_dict(f)
        if any(b.bit_count() != 1 for b in v):
            return False
        if rm.qform(eta, [v.get(1 << k, 0) for k in range(n)]) == 0:
            return False
        prod = rm.mv_mul(prod, v, p)
    g = _mv_dict(versor.product)
    return rm.mv_equal(prod, g) and _adjoint_matches(g, m, p, n)


# ---------------------------------------------------------------------------
# pin-lift: groups + real algebra + cech


SPHERE = (4, [(i, j, k) for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)])
TORUS = (7, sorted(tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
                   for i in range(7) for a, b, c in ((0, 1, 3), (0, 2, 3))))
RP2 = (6, [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
           (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)])
COMPLEXES = {"sphere": SPHERE, "torus": TORUS, "rp2": RP2}


def complex_edges(triangles):
    return sorted({(t[a], t[b]) for t in triangles for a in range(3) for b in range(a + 1, 3)})


class PinLift(InProcess):
    name = "pin-lift"
    ROUND_SECONDS = 7
    # One block holds every size class in fixed numbers; only p and the
    # vectors are drawn.  (n, r): lift of a product of r reflections in
    # p+q = n.  One lift in ten is at p+q = 8, which holds the tail; a
    # seeded mix of classes let the median and tail move 20-30% between seeds.
    LIFTS = [(8, r) for r in range(1, 9)] + [
        (n, r) for _ in range(6) for n in (2, 4, 6) for r in range(1, n + 1)]
    ZETA_COPIES = 2  # x (p+q in 1..8) x (1..3 factors)
    CECH_COPIES = 2  # x 4 cases x (p+q in {2, 4})
    CECH_CASES = [("sphere", False), ("torus", False), ("rp2", False), ("rp2", True)]

    def setup(self, ck):
        self.ck = ck
        self.sigs = {(p, n - p): ck.Signature(p, n - p) for n in range(1, 9) for p in range(n + 1)}

    def warm_ops(self, rng):
        return [self.lift_op(rng, 2, 1, 2), self.zeta_op(rng, 2, 1, 2),
                self.cech_op(rng, "sphere", False, 1, 1)]

    def blocks(self, rng):
        # p decides whether isotropic vectors (and the fallback path) occur,
        # so it is spread evenly too; each size draws p from its own bag
        lift_p = {n: Bag(rng, range(n + 1)) for n in (2, 4, 6, 8)}
        zeta_p = {n: Bag(rng, range(n + 1)) for n in range(1, 9)}
        cech_p = {n: Bag(rng, range(n + 1)) for n in (2, 4)}
        twisted_p = {n: Bag(rng, [p for p in range(n + 1) if rm.pseudoscalar_square(p, n) < 0])
                     for n in (2, 4)}
        while True:
            block = [self.lift_op(rng, n, lift_p[n].draw(), r) for n, r in self.LIFTS]
            for _ in range(self.ZETA_COPIES):
                for n in range(1, 9):
                    for k in (1, 2, 3):
                        block.append(self.zeta_op(rng, n, zeta_p[n].draw(), k))
            for _ in range(self.CECH_COPIES):
                for shape, twisted in self.CECH_CASES:
                    for n in (2, 4):
                        p = (twisted_p if twisted else cech_p)[n].draw()
                        block.append(self.cech_op(rng, shape, twisted, p, n - p))
            yield numbered(rng, block)

    def lift_op(self, rng, n, p, count):
        m = rm.reflection_product(rng, rm.eta_diag(p, n - p), count)

        def run():
            ck = self.ck
            return ck.lift_to_pin(ck.PseudoOrthogonalMatrix(self.sigs[(p, n - p)], m))

        return Op("lift", run, lambda g: _versor_matches(g, m, p, n))

    def zeta_op(self, rng, n, p, k):
        eta = rm.eta_diag(p, n - p)
        factors = [rm.anisotropic_vector(rng, eta) for _ in range(k)]
        g = {0: Fraction(1)}
        for w in factors:
            g = rm.mv_mul(g, rm.mv_vector(w), p)

        def run():
            ck, sig = self.ck, self.sigs[(p, n - p)]
            return ck.zeta(ck.Versor(sig, [ck.vector(sig, w) for w in factors]))

        def check(out):
            m = [list(row) for row in out.mat]
            return rm.preserves_form(eta, m) and _adjoint_matches(g, m, p, n)

        return Op("zeta", run, check)

    def cech_op(self, rng, shape, twisted, p, q):
        """Cocycle g_ij = h_i^-1 s_ij h_j with h random in O(p,q); s_ij = -1 on
        the edges of a non-trivial Z2 class when twisted, else +1."""
        n = p + q
        eta = rm.eta_diag(p, q)
        vertices, triangles = COMPLEXES[shape]
        edges = complex_edges(triangles)
        twist = rm.nontrivial_cocycle(vertices, edges, triangles) if twisted else 0
        h = [rm.reflection_product(rng, eta, rng.randint(1, n)) for _ in range(vertices)]
        mats = {}
        for k, (i, j) in enumerate(edges):
            m = rm.matmul(rm.eta_inverse(eta, h[i]), h[j])
            mats[(i, j)] = [[-x for x in row] for row in m] if twist >> k & 1 else m
        lifts_expected = 1 << rm.z2_betti1(vertices, edges, triangles)

        def run():
            ck = self.ck
            cx = ck.Complex.build(vertices, edges=edges, triangles=triangles)
            return ck.pin_lift_cocycle(ck.GroupCocycle.build(cx, self.sigs[(p, q)], mats))

        def check(res):
            if twisted:
                return not res.success and res.obstruction_nonzero
            if not res.success or res.lift_count != lifts_expected:
                return False
            own = {}
            for e in edges:
                if not _versor_matches(res.lifts[e], mats[e], p, n):
                    return False
                own[e] = _mv_dict(res.lifts[e].product)
            for i, j, k in triangles:
                # L_ij L_jk must be a positive multiple of L_ik
                prod, target = rm.mv_mul(own[(i, j)], own[(j, k)], p), own[(i, k)]
                lead = min(target)
                s = prod.get(lead, 0) / target[lead]
                if s <= 0 or not rm.mv_equal(prod, rm.mv_scale(target, s)):
                    return False
            return True

        return Op("cech", run, check)


# ---------------------------------------------------------------------------
# spinor-ideal: spinors + linalg elimination + complex algebra


def _gauss_dict(x):
    return {b: rm.gauss(c) for b, c in x.items() if c}


def _gauss_matrix(rows):
    return [[rm.Gauss(x.re, x.im) for x in row] for row in rows]


class SpinorIdeal(InProcess):
    name = "spinor-ideal"
    ROUND_SECONDS = 6.7
    # per block: 28 conjugators at n = 4 and one ideal + model chain at n = 4 and 6
    CONJUGATORS = 28
    N = 4

    def __init__(self):
        n = self.N
        half = rm.Gauss(Fraction(1, 2))
        p = {0: rm.Gauss(1)}
        for j in range(n // 2):
            factor = {0: half, (3 << 2 * j): rm.Gauss(0, Fraction(1, 2))}
            p = rm.mv_mul(p, factor, n)
        self.base = p

    def setup(self, ck):
        self.ck = ck
        # the compile cache is warm for this workload, unlike model-compile
        for n in (4, 6):
            ck.compile_complex_rep(n)

    def warm_ops(self, rng):
        return [self.conjugator_op(rng, 0), self.chain_op(4, 0)]

    def blocks(self, rng):
        while True:
            block = [self.conjugator_op(rng, rng.randrange(1 << 16)) for _ in range(self.CONJUGATORS)]
            block += [self.chain_op(4, rng.randrange(1 << 16)), self.chain_op(6, rng.randrange(1 << 16))]
            yield numbered(rng, block)

    def _unitary_versor(self, rng):
        n = self.N
        g = {0: rm.Gauss(1)}
        for _ in range(2):
            g = rm.mv_mul(g, _gauss_dict(rm.mv_vector(rm.unit_sphere_point(rng, n))), n)
        return g

    def conjugator_op(self, rng, seed):
        n = self.N
        pair = []
        for _ in range(2):
            g = self._unitary_versor(rng)
            pair.append(rm.mv_mul(rm.mv_mul(g, self.base, n), rm.mv_star(g), n))
        p1, p2 = pair

        def to_ck(x):
            ck = self.ck
            return ck.Multivector.complex_alg(n, {b: ck.GaussianRational(c.re, c.im) for b, c in x.items()})

        def run():
            return self.ck.find_conjugator(to_ck(p1), to_ck(p2), seed=seed)

        def check(g):
            if g is None:
                return False
            g = _mv_dict(g)
            return (rm.mv_equal(rm.mv_mul(g, p1, n), rm.mv_mul(p2, g, n))
                    and rm.rank(rm.left_mul_rows(g, n)) == 1 << n)

        return Op("conjugator", run, check)

    def chain_op(self, n, seed):
        def run():
            ck = self.ck
            idem = ck.primitive_idempotent(n)
            space = ck.left_ideal(idem)
            return idem, space, ck.spinor_matrix_model(space, seed=seed)

        def check(out):
            idem, space, model = out
            p = _mv_dict(idem.p)
            if not (rm.mv_equal(rm.mv_mul(p, p, n), p) and rm.mv_equal(rm.mv_star(p), p)):
                return False
            dim = 1 << (n // 2)
            basis = [_mv_dict(b) for b in space.basis]
            if space.dim != dim or len(basis) != dim:
                return False
            if any(not rm.mv_equal(rm.mv_mul(b, p, n), b) for b in basis):
                return False
            coords = [[b.get(k, rm.Gauss(0)) for k in range(1 << n)] for b in basis]
            if rm.rank(coords) != dim:
                return False
            left = [_gauss_matrix(m) for m in model.left_action]
            rho = [_gauss_matrix(m) for m in model.rep.gens]
            u = _gauss_matrix(model.intertwiner.matrix)
            uinv = _gauss_matrix(model.intertwiner.inverse)
            zero = rm.Gauss(0)
            if len(left) != n or len(rho) != n:
                return False
            for i in range(n):
                # e_i b_j = sum_k L_i[k][j] b_k
                for j, b in enumerate(basis):
                    want = {}
                    for k, bk in enumerate(basis):
                        want = rm.mv_add(want, rm.mv_scale(bk, left[i][k][j]))
                    if not rm.mv_equal(rm.mv_mul({1 << i: rm.Gauss(1)}, b, n), want):
                        return False
                if not rm.mat_equal(rm.matmul(u, left[i]), rm.matmul(rho[i], u)):
                    return False
            if not _relations_hold(rho, [1] * n, rm.Gauss(1), zero):
                return False
            return rm.mat_equal(rm.matmul(u, uinv), rm.scaled_identity(dim, rm.Gauss(1), zero))

        return Op(f"model{n}", run, check)


def _relations_hold(gens, squares, one, zero):
    """g_a g_b + g_b g_a = 2 eta_ab 1 for all a <= b."""
    m = len(gens[0]) if gens else 0
    for a, ga in enumerate(gens):
        for b in range(a, len(gens)):
            gb = gens[b]
            if len(gb) != m or any(len(row) != m for row in gb):
                return False
            anti = rm.matadd(rm.matmul(ga, gb), rm.matmul(gb, ga))
            c = one * (2 * squares[a]) if a == b else zero
            if not rm.mat_equal(anti, rm.scaled_identity(m, c, zero)):
                return False
    return True


# ---------------------------------------------------------------------------
# model-compile: reprs + linalg matmul + the CLI/JSON edge, one cold process per op

# (p - q) mod 8 -> (ring, n - 2 log2 m, summands): the real Clifford algebra
# classification table of the paper.
CLASS_TABLE = {
    0: ("MatR", 0, 1), 1: ("MatR", 1, 2), 2: ("MatR", 0, 1), 3: ("MatC", 1, 1),
    4: ("MatH", 2, 1), 5: ("MatH", 3, 2), 6: ("MatH", 2, 1), 7: ("MatC", 1, 1),
}
REAL_DIM = {"MatR": 1, "MatC": 2, "MatH": 4}


def expected_target(p, q):
    kind, shift, summands = CLASS_TABLE[(p - q) % 8]
    return kind, 1 << ((p + q - shift) // 2), summands


def check_model_doc(doc, p, q, complex_dim):
    """Target class from the table, generator shapes and exact relations."""
    if complex_dim is not None:
        n, squares, want = complex_dim, [1] * complex_dim, ("MatC", 1 << (complex_dim // 2), 1)
    else:
        n, squares, want = p + q, [1] * p + [-1] * q, expected_target(p, q)
    t = doc["target"]
    if (t["kind"], t["m"], t.get("summands", 1)) != want:
        return False
    kind, _, summands = want
    parse, one = rm.PARSERS[kind], rm.ONES[kind]
    zero = one - one
    gens = doc["generators"]
    if len(gens) != n:
        return False
    parts = [[g[s] for g in gens] for s in range(2)] if summands == 2 else [gens]
    for part in parts:
        mats = [[[parse(x) for x in row] for row in g] for g in part]
        if any(len(g) != t["m"] for g in mats) or not _relations_hold(mats, squares, one, zero):
            return False
    return True


class ModelCompile:
    name = "model-compile"
    in_process = False
    trace_blocks = 1
    ROUND_SECONDS = 10

    def __init__(self):
        self.max_child_rss_kb = 0

    def child(self, args, trace_out=None):
        """Run the CLI in a fresh interpreter.

        Returns (exit code, max RSS KiB, stderr, seconds at reference speed);
        the last is None when the child wrote no speed samples.
        """
        speed_out = OUT_DIR / f"speed-{os.getpid()}.json"
        cmd = [sys.executable, str(CHILD), "--speed-out", str(speed_out)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--"] + args, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reference = None
        if speed_out.exists():
            with open(speed_out, encoding="utf-8") as fh:
                doc = json.load(fh)
            speed_out.unlink()
            reference = (wall - doc["spent"]) * C_REF / statistics.median(doc["kernels"])
        return proc.returncode, usage.ru_maxrss, err.decode(errors="replace"), reference

    def setup_call(self):
        """One no-op CLI call, the start-up every op pays; reference seconds."""
        code, _, err, reference = self.child(["classify", "0", "0"])
        if code != 0 or reference is None:
            raise RuntimeError(f"cliffkit classify 0 0 failed: {err.strip()}")
        return reference

    @staticmethod
    def self_timed(out):
        """The child's time scaled by the speed the child itself measured."""
        return None if out is None else out[3]

    def blocks(self, rng):
        configs = [(p, n - p, None) for n in (6, 7, 8) for p in range(n + 1)]
        configs += [(None, None, 6), (None, None, 8)]
        counter = 0
        while True:
            block = [self.compile_op(p, q, cdim, counter + k) for k, (p, q, cdim) in enumerate(configs)]
            counter += len(configs)
            yield numbered(rng, block)

    def compile_op(self, p, q, cdim, index):
        path = OUT_DIR / f"model-{os.getpid()}-{index}.json"
        args = ["compile"] + (["--complex", str(cdim)] if cdim else [str(p), str(q)])
        args += ["--verify", "--json", str(path)]
        kind = "complex" if cdim else f"real{p + q}"

        def run(trace_out=None):
            code, rss, err, reference = self.child(args, trace_out)
            self.max_child_rss_kb = max(self.max_child_rss_kb, rss)
            return code, err, path, reference

        def check(out):
            code, err, path, _ = out
            if code != 0:
                raise RuntimeError(f"cliffkit {' '.join(args)} exited {code}: {err.strip()}")
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            finally:
                path.unlink(missing_ok=True)
            return check_model_doc(doc, p, q, cdim)

        return Op(kind, run, check)


WORKLOADS = {w.name: w for w in (PinLift, SpinorIdeal, ModelCompile)}
