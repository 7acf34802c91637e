"""The plan server under test, as its own process.

``python -m replaybench.serve [--trace-out PATH]`` runs ``PlanService``
behind ``PlanServer`` on an ephemeral port, prints ``{"port": N,
"started": T}`` once it listens, and stops when its standard input
closes. T is ``time.perf_counter()`` before anything was imported, so
the parent can time set-up from there to its first response. With
``--trace-out`` the layer wrappers are installed for the process's
life and the spans are written to PATH on exit.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from replaybench.common import ensure_repro  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m replaybench.serve")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    ensure_repro()
    from repro.server.app import PlanServer, ServerConfig
    from repro.service.optimizer_service import PlanService

    from replaybench.trace import Tracer, installed

    tracer = Tracer() if args.trace_out else None
    service = PlanService()
    server = PlanServer(service, ServerConfig(port=0))

    async def serve() -> None:
        await server.start()
        print(json.dumps({"port": server.port, "started": STARTED}), flush=True)
        # Blocks a default-executor thread until the parent closes stdin.
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
        await server.stop()

    try:
        with installed(tracer) if tracer else nullcontext():
            asyncio.run(serve())
    finally:
        service.close()
    if tracer:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
