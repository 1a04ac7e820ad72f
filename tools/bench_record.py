"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

Run from the repository root:

    python tools/bench_record.py --pr 46
    python tools/bench_record.py --pr 45 --repo ../parent --note "parent checkout"

The file holds, for the checkout at --repo (default: this repository):
the median of three perfbench ``--trace 0`` runs of each workload, at the
benchmark's own run length and seed 0; the slowest of ``verify-all`` seeds
0-16 for each criterion, against its budget; the Tier-1 wall time and its
five slowest tests; and the commit, whether ``src`` differs from it, the
source digest, the Python version and the CPU count.  The scale figures of
ROADMAP items 4-7 are listed as null with the reason, until a measurement
of them is added here.  Steps run one after another, so one run takes
about 2.5 minutes on 2 CPUs.  The file is written to the root of this
repository.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
SEEDS = range(17)
SCALE = {
    "compile at MAX_COMPILE_DIM, with and without --json": 4,
    "cech check, lift and lift --json on the three document shapes at the bound": 4,
    "spinor --complex N --model at the bound and at N = 14": 6,
    "find_conjugator at n = 6 and 8": 7,
}


def _run(repo, argv):
    """argv in the checkout ``repo``, importing cliffkit from its ``src``."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    return subprocess.run(argv, cwd=repo, env=env, capture_output=True, text=True)


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
                                 epilog="One run takes about 2.5 minutes on 2 CPUs.")
    ap.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    ap.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    ap.add_argument("--note", default="", help="what the checkout is, stored with the figures")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    start = time.monotonic()
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
        "scale": {name: {"value": None, "reason": f"ROADMAP item {item}: not measured by this recorder yet"}
                  for name, item in SCALE.items()},
    }
    doc["recorder_s"] = round(time.monotonic() - start, 1)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} in {doc['recorder_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
