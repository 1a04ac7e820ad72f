"""Run one cliffkit CLI command the way the console script does.

Usage: cli_child.py [--speed-out PATH] [--trace-out PATH] -- <cliffkit arguments>

The package is pinned to this checkout's ``src/``.  With ``--speed-out`` the
calibration kernel is timed in this process before the import and after the
command, and the samples and the seconds they took are written to PATH as
JSON, so the parent can scale the op by the speed of the CPU that ran it.
With ``--trace-out`` the layers are wrapped by the span recorder around
``cliffkit.cli.main`` and the spans, counts and the traced call time are
written to PATH as JSON.
"""

from __future__ import annotations

import json
import sys
import time

from pin import PinError, import_cliffkit
from speed import Speed


def main(argv):
    outs = {}
    while argv[:1] in (["--speed-out"], ["--trace-out"]):
        outs[argv[0]], argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    speed = Speed() if "--speed-out" in outs else None
    if speed is not None:
        speed.sample()
        speed.sample()
    try:
        import_cliffkit()
    except PinError as exc:
        print(f"cli_child: {exc}", file=sys.stderr)
        return 3
    import cliffkit.cli as cli

    if "--trace-out" not in outs:
        code = cli.main(argv)
    else:
        from spans import Recorder

        rec = Recorder()
        rec.install(extra=[("cli", cli, "main")])
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            elapsed = time.perf_counter() - t0
            rec.uninstall()
        with open(outs["--trace-out"], "w", encoding="utf-8") as fh:
            json.dump({"op_s": elapsed, "spans": rec.spans, **rec.summary()}, fh)
    if speed is not None:
        speed.sample()
        speed.sample()
        with open(outs["--speed-out"], "w", encoding="utf-8") as fh:
            json.dump({"kernels": [c for _, c in speed.samples], "spent": speed.spent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
