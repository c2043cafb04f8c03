"""One fresh process for one benchmark pass or one oracle replay.

    python3 perfbench/worker.py pass <workload> <seed> <trace 0|1>
    python3 perfbench/worker.py oracle <workload> <seed>

Prints one JSON object as its last stdout line. ``run.py`` starts it with
``src`` on PYTHONPATH, BLAS pinned to one thread and program logging quiet,
so nothing from an earlier pass (caches, memory high-water mark, threads)
carries into this one. A pass that raises is reported as {"error": ...};
any other failure exits non-zero without a result.
"""

from __future__ import annotations

import json
import sys
import traceback

import numpy

import workloads
from tracing import Tracer, layer_metrics


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if name not in workloads.NAMES:
        raise SystemExit(f"unknown workload {name!r}")
    if mode == "oracle":
        out = {"outputs": workloads.run_oracle(name, seed)}
    elif mode == "pass":
        tracer = Tracer() if argv[3] == "1" else None
        if tracer is not None:
            tracer.install()
        try:
            out = workloads.run_pass(name, seed, tracer)
        except Exception:
            out = {"error": traceback.format_exc()}
        else:
            if tracer is not None:
                out["layers"] = layer_metrics(tracer, workloads.model_dim(name))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
