"""cliffkit benchmark: seeded closed-loop workloads with exact output checks.

Run from the repository root:

    python3 perfbench/run.py --workload pin-lift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

One client runs ops one at a time (closed loop, no threads).  With
``--trace 0`` the run measures round(--seconds / ROUND_SECONDS) whole blocks
of ops (about --seconds of op time) and prints the end-to-end metrics; with
``--trace 1`` it runs a fixed number of blocks twice, untraced and then under
the span recorder, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Workload rationale and predictions: perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types

import refmath as rm
import spans
from speed import Speed
from pin import OUT_DIR, ROOT, SRC, PinError, import_cliffkit
from workloads import COMPLEXES, REAL_DIM, WORKLOADS, check_model_doc, complex_edges, expected_target

SETUP_SAMPLES = 7
E2E_METRICS = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb", "ok_ratio")
TRACE_METRICS = ("trace.overhead_ratio", "trace.op_s", "trace.attributed_ratio")
# warm-up inputs do not depend on --seed, so set-up time does not either
WARM_SEED = 0


def timed(op, **kwargs):
    """Run one op; returns (seconds, output, exception or None)."""
    t0 = time.perf_counter()
    try:
        out = op.run(**kwargs)
    except Exception as exc:  # a raising op counts as failed, it does not end the run
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


class Tally:
    """Latency, kind and failure accounting for attempted ops."""

    def __init__(self):
        self.latencies = []
        self.by_kind = {}
        self.failed = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.latencies)

    def add(self, op, seconds, out, exc):
        self.latencies.append(seconds)
        self.by_kind.setdefault(op.kind, []).append(seconds)
        if exc is None:
            try:
                if op.check(out):
                    return True
                exc = "wrong output"
            except Exception as err:  # a checker that cannot read the output fails the op
                exc = err
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.kind}: {exc!r}")
        return False


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    The value is the mean of the five samples ranked 9th to 13th from the
    top, an estimate of that percentile that one slowed op cannot move much.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 13:
        return xs[-1], 100.0
    return statistics.mean(xs[n - 13:n - 8]), math.floor(1000 * (n - 10) / n) / 10


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "cliffkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ready(name):
    """Import cliffkit, set the workload up and check its warm-up ops."""
    wl = WORKLOADS[name]()
    if not wl.in_process:
        import_cliffkit()
        return wl
    warm = wl.warm_ops(random.Random(WARM_SEED))
    wl.setup(import_cliffkit())
    tally = Tally()
    if not all(tally.add(op, *timed(op)) for op in warm):
        raise RuntimeError(f"warm-up op failed: {tally.errors}")
    return wl


def setup_probe(name):
    """One fresh-process set-up: import, cliffkit objects, warm-up."""
    wl = WORKLOADS[name]()
    warm = wl.warm_ops(random.Random(WARM_SEED))
    t0 = time.perf_counter()
    wl.setup(import_cliffkit())
    results = [(op,) + timed(op) for op in warm]
    elapsed = time.perf_counter() - t0
    tally = Tally()
    ok = all(tally.add(*r) for r in results)
    print(json.dumps({"setup_s": elapsed, "warm_ok": ok, "errors": tally.errors}))
    return 0 if ok else 1


def setup_samples(wl, name, speed):
    """Set-up seconds of fresh processes, at reference speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        if not wl.in_process:
            samples.append(wl.setup_call())
            continue
        speed.sample()
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        t1 = time.perf_counter()
        speed.sample()
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stdout[-500:]} {out.stderr[-2000:]}")
        seconds = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(seconds * speed.scale(t0, t1))
    return samples


def run_ops(wl, ops, speed, tally, before=None):
    """Run and check ops one after another; returns their seconds at reference speed.

    ``before(k)`` is called ahead of op k and returns its keyword arguments.
    Outputs are checked and dropped as they come, so they do not add to the
    memory of the process.
    """
    marks = []
    for k, op in enumerate(ops):
        kwargs = before(k) if before else {}
        speed.tick()
        t0 = time.perf_counter()
        dt, out, exc = timed(op, **kwargs)
        marks.append((t0, dt, wl.self_timed(out)))
        tally.add(op, dt, out, exc)
    speed.sample()
    return [own if own is not None else dt * speed.scale(t0, t0 + dt) for t0, dt, own in marks]


def end_to_end(name, seed, seconds):
    wl = ready(name)
    speed = Speed()
    setups = setup_samples(wl, name, speed)
    leftover = spans.wrapped_names()
    if leftover:
        raise RuntimeError(f"end-to-end run would time wrapped functions: {leftover[:5]}")
    gen = wl.blocks(random.Random(seed))
    rounds = max(1, round(seconds / wl.ROUND_SECONDS))
    ops = [op for _ in range(rounds) for op in next(gen)]
    tally = Tally()
    reference = run_ops(wl, ops, speed, tally)
    # Throughput and median from each slot's median time over the rounds: an
    # op that the speed samples around it misjudge (the machine changed speed
    # during a long op, a cold start hit a slow disk) moves one round of its
    # slot, not the slot's median.
    by_slot = {}
    for op, seconds in zip(ops, reference):
        by_slot.setdefault(op.slot, []).append(seconds)
    slot_s = [statistics.median(v) for v in by_slot.values()]
    busy = sum(tally.latencies)
    ok = tally.attempted - tally.failed
    tail_s, pct = tail(reference)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = wl.max_child_rss_kb
    metrics = {
        "ops_per_s": (ok / tally.attempted * len(slot_s) / sum(slot_s), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(slot_s), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_ratio": (ok / tally.attempted, "ratio"),
    }
    kernel = [c for _, c in speed.samples]
    by_kind = {k: [1000 * s for o, s in zip(ops, reference) if o.kind == k] for k in sorted(tally.by_kind)}
    env = {
        "rounds": rounds,
        "op_seconds_wall": busy,
        "op_seconds_reference": sum(reference),
        "ops_per_s_wall": ok / busy,
        "latency_p50_ms_wall": 1000 * statistics.median(tally.latencies),
        "speed_kernel_ms": {"min": 1000 * min(kernel), "median": 1000 * statistics.median(kernel),
                            "max": 1000 * max(kernel), "samples": len(kernel)},
        "latency_tail_percentile": pct,
        "latency_samples": tally.attempted,
        "failed_ratio": tally.failed / tally.attempted,
        "setup_samples_s": setups,
        "peak_rss_of": "process running the ops" if wl.in_process else "largest op child",
        "wrapped_functions_during_timing": leftover,
        "latencies_ms_by_kind": by_kind,
        "latency_p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
    }
    return tally, metrics, env


def merge_child_trace(rec, path, op_id):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    path.unlink()
    for layer, seconds in doc["layer_self"].items():
        rec.layer_self[layer] += seconds
    rec.counts.update(doc["counts"])
    rec.spans.extend((sid, parent, op_id, name, t0, t1) for sid, parent, _, name, t0, t1 in doc["spans"])
    return doc["op_s"]


def traced(name, seed):
    wl = ready(name)
    gen = wl.blocks(random.Random(seed))
    ops = [op for _ in range(wl.trace_blocks) for op in next(gen)]
    speed = Speed()
    tally = Tally()
    plain_ref = run_ops(wl, ops, speed, tally)
    plain_wall = sum(tally.latencies)
    rec = spans.Recorder()
    if wl.in_process:
        def before(k):
            rec.op_id = k
            return {}

        rec.install()
        try:
            traced_ref = run_ops(wl, ops, speed, tally, before)
        finally:
            rec.uninstall()
        op_s = sum(tally.latencies) - plain_wall
    else:
        def child_trace(k):
            return OUT_DIR / f"trace-child-{os.getpid()}-{k}.json"

        traced_ref = run_ops(wl, ops, speed, tally, lambda k: {"trace_out": child_trace(k)})
        op_s = sum(merge_child_trace(rec, child_trace(k), k) for k in range(len(ops))
                   if child_trace(k).exists())
    leftover = spans.wrapped_names()
    if leftover:
        raise RuntimeError(f"span wrappers left installed: {leftover[:5]}")
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    rec.write(trace_path)
    metrics = spans.layer_metrics(rec.layer_self, rec.counts)
    metrics["trace.overhead_ratio"] = (sum(traced_ref) / sum(plain_ref), "ratio")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.attributed_ratio"] = (sum(rec.layer_self.values()) / op_s if op_s else 0.0, "ratio")
    env = {
        "traced_ops": len(ops),
        "untraced_op_seconds_wall": plain_wall,
        "traced_op_seconds_wall": sum(tally.latencies) - plain_wall,
        "spans": len(rec.spans),
        "span_file": str(trace_path.relative_to(ROOT)),
    }
    return tally, metrics, env


def run(args):
    rm.self_check()
    import_cliffkit()
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        tally, metrics, extra = traced(args.workload, args.seed)
    else:
        tally, metrics, extra = end_to_end(args.workload, args.seed, args.seconds)
    env = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_by_kind": {k: len(v) for k, v in sorted(tally.by_kind.items())},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        **extra,
    }
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print("env " + json.dumps({k: v for k, v in env.items() if k != "latencies_ms_by_kind"}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"env": env, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# self-test: the oracle accepts real outputs and rejects corrupted ones


def _negate_first(rows):
    """Copy of a matrix with its first nonzero entry negated."""
    out = [list(r) for r in rows]
    for row in out:
        for j, x in enumerate(row):
            if x:
                row[j] = -x
                return out
    raise ValueError("matrix has no nonzero entry")


def _negate_first_json(doc):
    """Flip the sign of the first nonzero scalar of the first generator."""
    def flip(text):
        return text[1:] if text.startswith("-") else "-" + text

    gen = doc["generators"][0]
    if doc["target"].get("summands", 1) == 2:
        gen = gen[0]
    for row in gen:
        for j, x in enumerate(row):
            if isinstance(x, list):  # quaternion components
                for k, comp in enumerate(x):
                    if comp != "0":
                        x[k] = flip(comp)
                        return doc
            elif x != "0":
                row[j] = flip(x)
                return doc
    raise ValueError("generator has no nonzero entry")


def _corruptions():
    ns = types.SimpleNamespace
    return {
        "lift": lambda g: ns(factors=g.factors, product=ns(terms={
            b: (-c if b == min(g.product.terms) else c) for b, c in g.product.terms.items()})),
        "zeta": lambda m: ns(mat=_negate_first(m.mat)),
        "cech": lambda r: ns(success=r.success, obstruction_nonzero=r.obstruction_nonzero,
                             lift_count=r.lift_count, lifts={
                                 e: (v.negated() if k == 0 else v)
                                 for k, (e, v) in enumerate(r.lifts.items())}) if r.success
        else ns(success=True, obstruction_nonzero=False, lift_count=0, lifts={}),
        "conjugator": lambda g: ns(terms={b: (-c if b == min(g.terms) else c) for b, c in g.terms.items()}),
        "model": lambda out: (out[0], out[1], ns(left_action=out[2].left_action, rep=out[2].rep,
                                                 intertwiner=ns(matrix=_negate_first(out[2].intertwiner.matrix),
                                                                inverse=out[2].intertwiner.inverse))),
    }


def self_test():
    rm.self_check()
    for n in range(10):
        for p in range(n + 1):
            kind, m, summands = expected_target(p, n - p)
            if summands * m * m * REAL_DIM[kind] != 1 << n:
                raise AssertionError(f"class table gives the wrong dimension for ({p},{n - p})")
    for shape, betti in (("sphere", 0), ("torus", 2), ("rp2", 1)):
        vertices, triangles = COMPLEXES[shape]
        if rm.z2_betti1(vertices, complex_edges(triangles), triangles) != betti:
            raise AssertionError(f"b1 of {shape} is not {betti}")
    OUT_DIR.mkdir(exist_ok=True)
    ck = import_cliffkit()
    corrupt = _corruptions()
    report = []

    def probe(op, label, bad):
        dt, out, exc = timed(op)
        good, wrong = Tally(), Tally()
        good.add(op, dt, out, exc)
        wrong.add(op, dt, bad(out) if exc is None else out, exc)
        report.append(f"{label}: clean failed={good.failed} corrupted failed={wrong.failed}")
        if good.failed or not wrong.failed:
            raise AssertionError(f"{label}: oracle did not separate clean from corrupted output "
                                 f"({good.errors} / {wrong.errors})")

    rng = random.Random(7)
    pin = WORKLOADS["pin-lift"]()
    pin.setup(ck)
    probe(pin.lift_op(rng, 4, 2, 3), "lift", corrupt["lift"])
    probe(pin.zeta_op(rng, 3, 1, 2), "zeta", corrupt["zeta"])
    probe(pin.cech_op(rng, "torus", False, 1, 1), "cech", corrupt["cech"])
    probe(pin.cech_op(rng, "rp2", True, 2, 0), "cech twisted", corrupt["cech"])
    spin = WORKLOADS["spinor-ideal"]()
    spin.setup(ck)
    probe(spin.conjugator_op(rng, 3), "conjugator", corrupt["conjugator"])
    probe(spin.chain_op(4, 3), "model4", corrupt["model"])
    mc = WORKLOADS["model-compile"]()
    for p, q, cdim in ((2, 1, None), (1, 2, None), (0, 4, None), (1, 4, None), (None, None, 4)):
        op = mc.compile_op(p, q, cdim, 0)
        dt, out, exc = timed(op)
        with open(out[2], encoding="utf-8") as fh:
            doc = json.load(fh)
        op_ok = Tally().add(op, dt, out, exc)
        bad_ok = check_model_doc(_negate_first_json(doc), p, q, cdim)
        report.append(f"compile {p},{q},{cdim}: clean ok={op_ok} corrupted ok={bad_ok}")
        if not op_ok or bad_ok:
            raise AssertionError(f"compile {p},{q},{cdim}: oracle did not separate outputs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    produced = set(spans.layer_metrics({}, {})) | set(TRACE_METRICS)
    if declared != produced:
        raise AssertionError(f"per-layer metrics differ from BENCHMARK.json: {sorted(declared ^ produced)}")
    if {m["name"] for m in bench["end_to_end"]} != set(E2E_METRICS):
        raise AssertionError("end-to-end metrics differ from BENCHMARK.json")
    rec = spans.Recorder()
    rec.install()
    try:
        wrapped = spans.wrapped_names()
        if "cliffkit.cech.lift_to_pin" not in wrapped or "cliffkit.lift_to_pin" not in wrapped:
            raise AssertionError("names imported by other modules were not wrapped")
        timed(pin.lift_op(rng, 2, 1, 1))
    finally:
        rec.uninstall()
    if spans.wrapped_names() or not rec.spans:
        raise AssertionError("recorder left wrappers installed or recorded nothing")
    report.append(f"recorder: {len(wrapped)} names wrapped, {len(rec.spans)} spans, none left")
    print("\n".join(report))
    print("self-test passed")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the oracle and the recorder")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            return setup_probe(args.workload)
        return run(args)
    except PinError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
