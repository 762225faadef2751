"""The server process the e2e benchmark measures.

What ``python -m repro serve`` does — open the store, wrap it in a
:class:`QueryService` (planner on, feedback on: the shipped defaults),
serve it with ``ServerConfig()`` defaults — plus what a harness needs
from a child: the port is OS-assigned (``port=0``, so two runs on one
machine cannot collide) and printed as one JSON line on stdout once the
listener is bound, and the process ends with its parent (below).

The process stops on SIGTERM (graceful drain) or when its stdin reaches
EOF — the harness holds the write end, so a harness that dies without
cleaning up cannot leave a server behind.  The benchmark itself stops
it with SIGKILL.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the repro package")
    parser.add_argument("--store", required=True)
    parser.add_argument("--backend", required=True, help="serial | pool[:N] | fabric[:N]")
    return parser.parse_args(argv)


async def _serve(service) -> None:
    from repro.server import QueryServer, ServerConfig

    server = QueryServer(service, ServerConfig(port=0))
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    # stdin never carries data: readable means the harness closed it.
    loop.add_reader(sys.stdin.fileno(), stop.set)
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
    await stop.wait()
    loop.remove_reader(sys.stdin.fileno())
    await server.shutdown()


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, args.src)
    from repro.service import QueryService, ShardedStore

    with QueryService(ShardedStore.open(args.store), backend=args.backend) as service:
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(_serve(service))
    return 0


if __name__ == "__main__":
    sys.exit(main())
