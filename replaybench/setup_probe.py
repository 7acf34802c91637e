"""Set-up time of one workload, measured in a fresh process.

``python -m replaybench.setup_probe WORKLOAD SEED`` prints
``{"setup_s": ...}``: seconds from before the program is imported to
its first correct response. That covers importing ``repro``,
constructing the service, and for ``sql_exec`` ANALYZE of one dataset;
generating the dataset itself is input, not set-up, and is subtracted.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import importlib  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    from replaybench.common import ensure_repro

    ensure_repro()
    if workload == "sql_exec":
        from replaybench.sql_exec import setup_seconds

        generation, _ = setup_seconds()
        elapsed = time.perf_counter() - STARTED - generation
    else:
        from repro.plans.visitors import validate_plan

        module = importlib.import_module(f"replaybench.{workload}")
        service = module.make_service()
        try:
            request = module.first_request(seed)
            response = service.plan_request(request)
            validate_plan(response.plan, request.graph)
            elapsed = time.perf_counter() - STARTED
        finally:
            service.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
