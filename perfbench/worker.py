"""One pass of one workload, in the fresh interpreter that run.py starts.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SCALE TRACE [SPANS_PATH]``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  Prints one JSON
object with the pass's results as its last line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracing import Tracer


def main(argv: list[str]) -> int:
    workload, seed, scale, traced = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    spans_path = Path(argv[4]) if len(argv) > 4 else None

    import dyckshift  # noqa: F401 - import first, so setup cost stays out of the pass
    import dyckshift.cli  # noqa: F401

    tracer = Tracer() if traced else None
    p = workloads.Pass(tracer)
    if tracer:
        tracer.install()
    # In a traced pass the probe's samples land in whichever span is open,
    # which inflates every layer's self time by the same ~1 %.
    with SpeedProbe() as probe:
        start = time.perf_counter()
        workloads.WORKLOADS[workload](p, seed, workloads.SIZES[scale][workload])
        elapsed = time.perf_counter() - start
    out = {}
    if tracer:
        tracer.uninstall()
        out["layers"] = layers = tracer.summary()
        out["missing_layers"] = tracer.missing
        out["spans"] = {"recorded": len(tracer.spans), "total": tracer.span_count}
        if workload == "verify-sampling":
            drawn = sum(layers[f"coding.{s}"]["items"] for s in ("sample_tilde", "sample_plus", "sample_minus"))
            if drawn != p.extra["windows"]:
                p.fail(f"sampling checks drew {drawn} windows, expected {p.extra['windows']}")
        if spans_path:
            tracer.write_spans(spans_path)
    out.update(
        speed=probe.speed,
        wall_s=elapsed - p.check_s,
        check_s=p.check_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=p.attempted,
        failed=p.failed,
        failures=p.failures,
        digest=p.digest,
        extra=p.extra,
        python=platform.python_version(),
        dyckshift_file=os.path.realpath(sys.modules["dyckshift"].__file__),
    )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
