"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

Run from the repository root:

    python tools/bench_record.py --pr 46
    python tools/bench_record.py --pr 45 --repo ../parent --note "parent checkout"

The file holds, for the checkout at --repo (default: this repository):
the median of three perfbench ``--trace 0`` runs of each workload, at the
benchmark's own run length and seed 0; the slowest of ``verify-all`` seeds
0-16 for each criterion, against its budget; the Tier-1 wall time and its
five slowest tests; and the commit, whether ``src`` differs from it, the
source digest, the Python version and the CPU count.  Of the scale
figures, two are measured, each as the median child wall time and peak
RSS of three children: ``compile n 0 --verify`` at n = MAX_COMPILE_DIM,
with and without ``--json`` (about 2 s), and ``find_conjugator`` at n = 6
and 8 on the conjugates of the primitive idempotent by the first two
``random_unitary_versor`` draws of seed 0 (about 15 s); the others are
listed as null with the reason, until a measurement of them is added here.
The cold CLI figures are ``classify 0 0``, ``compile 8 0 --verify --json``
and ``compile --complex 7 --verify --json``, each the median child wall
time of 11 runs with ``PYTHONDONTWRITEBYTECODE=1``, and the ``ast.stmt``
count of the modules a cold ``compile 8 0 --verify`` runs (about 3 s);
they are recorded as null with the reason when ``src/cliffkit/__pycache__``
exists, as bytecode left there would skip the compile of the source that
they time.  They are measured first, as the later steps import cliffkit
without that setting.  Steps run one after another, so one run takes about
2.8 minutes on 2 CPUs.  The file is written to the root of this
repository.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
SEEDS = range(17)
COMPILE_SCALE = "compile at MAX_COMPILE_DIM, with and without --json"
CONJUGATOR_SCALE = "find_conjugator at n = 6 and 8"
# finds the conjugator of p1 = g1 p g1~ and p2 = g2 p g2~, p the primitive
# idempotent and g1, g2 the first two unitary versors of seed 0, at n = argv[1]
CONJUGATOR = ("import sys; from cliffkit import find_conjugator, primitive_idempotent; "
              "from cliffkit.sampling import random_unitary_versor, rng_from_seed; "
              "n = int(sys.argv[1]); p = primitive_idempotent(n).p; rng = rng_from_seed(0); "
              "g1, g2 = random_unitary_versor(n, rng), random_unitary_versor(n, rng); "
              "assert find_conjugator(g1 * p * g1.reversion(), g2 * p * g2.reversion()) is not None")
COLD_RUNS = 11
COLD_ARGV = (["classify", "0", "0"], ["compile", "8", "0", "--verify", "--json"],
             ["compile", "--complex", "7", "--verify", "--json"])
# prints the source files of the cliffkit modules whose code a cold compile
# runs, the package __init__ included: an unrun layer lacks __builtins__
RAN_FILES = ("import sys, cliffkit.cli as cli; cli.main(['compile', '8', '0', '--verify']); "
             "print(*(m.__file__ for n, m in sorted(sys.modules.items()) "
             "if n.startswith('cliffkit') and '__builtins__' in vars(m)))")
# the scale figures not measured yet -> the ROADMAP item that asks for them
SCALE = {
    "cech check, lift and lift --json on the three document shapes at the bound": 9,
    "spinor --complex N --model at the bound and at N = 14": 11,
}


def _run(repo, argv):
    """argv in the checkout ``repo``, importing cliffkit from its ``src``."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    return subprocess.run(argv, cwd=repo, env=env, capture_output=True, text=True)


def _child_cost(repo, argv):
    """Wall seconds and peak RSS in MB of one child running argv in the
    checkout ``repo``, read from that child's own rusage."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=repo, env=env, stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def compile_scale(repo):
    """``compile n 0 --verify`` at n = MAX_COMPILE_DIM, without and with
    --json: the median child wall time and peak RSS of RUNS children each,
    and every child."""
    read = [sys.executable, "-c", "from cliffkit.cli import MAX_COMPILE_DIM as n; print(n)"]
    n = int(_run(repo, read).stdout)
    argv = [sys.executable, "-m", "cliffkit", "compile", str(n), "0", "--verify"]
    out = {"argv": " ".join(argv[3:])}
    with tempfile.TemporaryDirectory() as tmp:
        for key, extra in (("without_json", []), ("with_json", ["--json", str(Path(tmp) / "model.json")])):
            runs = [_child_cost(repo, argv + extra) for _ in range(RUNS)]
            out[key] = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
            out[key]["runs"] = runs
    return out


def conjugator_scale(repo):
    """``find_conjugator`` at n = 6 and 8 on the CONJUGATOR input: the
    median child wall time and peak RSS of RUNS children each, and every
    child."""
    out = {"argv": f"python -c {CONJUGATOR!r} n"}
    for n in (6, 8):
        runs = [_child_cost(repo, [sys.executable, "-c", CONJUGATOR, str(n)]) for _ in range(RUNS)]
        out[f"n={n}"] = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        out[f"n={n}"]["runs"] = runs
    return out


def cold_cli(repo):
    """Median child wall seconds of COLD_RUNS cold runs of each COLD_ARGV
    command, no bytecode read or written, and the statement count of the
    code a cold compile runs; null with the reason if bytecode is cached."""
    if (repo / "src" / "cliffkit" / "__pycache__").exists():
        return {"value": None, "reason": "src/cliffkit/__pycache__ exists: remove it to time cold runs"}
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in COLD_ARGV:
            cmd = [sys.executable, "-m", "cliffkit", *argv]
            if "--json" in argv:
                cmd.append(str(Path(tmp) / "model.json"))
            walls = []
            for _ in range(COLD_RUNS):
                start = time.monotonic()
                subprocess.run(cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL, check=True)
                walls.append(time.monotonic() - start)
            out[" ".join(argv)] = {"median_wall_s": round(statistics.median(walls), 4),
                                   "runs": [round(w, 4) for w in walls]}
    files = subprocess.run([sys.executable, "-c", RAN_FILES], cwd=repo, env=env, capture_output=True,
                           text=True, check=True).stdout.splitlines()[-1].split()
    out["compile_path_statements"] = sum(
        isinstance(node, ast.stmt) for f in files for node in ast.walk(ast.parse(Path(f).read_text())))
    out["compile_path_modules"] = sorted(Path(f).stem for f in files)
    return out


def perfbench(repo):
    """Each workload's end-to-end metrics: the median of RUNS runs, and every
    run; and the ``env`` line of the last run, which names the commit, the
    source digest, the Python version and the CPU count."""
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    out = {}
    for wl in bench["workloads"]:
        runs = []
        for _ in range(RUNS):
            argv = [sys.executable, *bench["command"][1:], "--workload", wl["name"], "--seed", "0",
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            lines = _run(repo, argv).stdout.splitlines()
            env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
            result = json.loads(lines[-1])
            runs.append({"correct": result["correct"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
        out[wl["name"]] = {
            "median": {k: statistics.median(r[k] for r in runs) for k in runs[0] if k != "correct"},
            "all_correct": all(r["correct"] for r in runs),
            "runs": runs,
        }
    return {"seed": 0, "seconds": bench["run_seconds"], "runs": RUNS, "workloads": out}, env


def verify_all(repo):
    """Per criterion: the slowest seed's seconds against the budget."""
    slowest, failed = {}, []
    for seed in SEEDS:
        argv = [sys.executable, "-m", "cliffkit", "--seed", str(seed), "verify-all", "--json"]
        for r in json.loads(_run(repo, argv).stdout)["results"]:
            if not r["ok"]:
                failed.append([seed, r["name"]])
            best = slowest.get(r["name"])
            if best is None or r["seconds"] > best["seconds"]:
                slowest[r["name"]] = {"seconds": r["seconds"], "seed": seed, "budget": r["budget"]}
    for s in slowest.values():
        s["headroom"] = round(s["budget"] / s["seconds"], 1) if s["budget"] and s["seconds"] else None
    return {"seeds": [SEEDS.start, SEEDS.stop - 1], "failed": failed, "slowest": slowest}


def tier1(repo):
    """The ROADMAP's Tier-1 command: wall time, outcome counts and the five slowest tests."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]
    start = time.monotonic()
    proc = _run(repo, argv)
    wall = time.monotonic() - start
    summary = proc.stdout.strip().splitlines()[-1]
    return {
        "wall_s": round(wall, 1),
        "exit_code": proc.returncode,
        "summary": summary,
        "counts": {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error|skipped)", summary)},
        "slowest": [{"test": t, "seconds": float(s)}
                    for s, t in re.findall(r"^(\d+\.\d+)s call\s+(\S+)$", proc.stdout, re.M)],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 epilog="One run takes about 2.8 minutes on 2 CPUs, of which the "
                                 "compile scale figure takes about 2 s, the conjugator scale "
                                 "figure about 15 s and the 33 cold CLI runs about 3 s.")
    ap.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    ap.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    ap.add_argument("--note", default="", help="what the checkout is, stored with the figures")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    start = time.monotonic()
    cold = cold_cli(repo)  # first: the steps after it may leave bytecode in src
    bench, env = perfbench(repo)
    status = subprocess.run(["git", "-C", str(repo), "status", "--porcelain", "src"],
                            capture_output=True, text=True)
    doc = {
        "pr": args.pr,
        "note": args.note,
        "commit": env["git_commit"],
        "src_dirty": bool(status.stdout.strip()),
        "src_sha256": env["src_sha256"],
        "python": env["python"],
        "cpus": env["cpus"],
        "perfbench": bench,
        "verify_all": verify_all(repo),
        "tier1": tier1(repo),
        "cold_cli": cold,
        "scale": {COMPILE_SCALE: compile_scale(repo), CONJUGATOR_SCALE: conjugator_scale(repo),
                  **{name: {"value": None, "reason": f"ROADMAP item {item}: not measured by this recorder yet"}
                     for name, item in SCALE.items()}},
    }
    doc["recorder_s"] = round(time.monotonic() - start, 1)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} in {doc['recorder_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
