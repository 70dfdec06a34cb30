"""``python -m repro.server`` — serve an uncertain TPC-H instance over TCP.

Generates a small uncertain TPC-H database (``repro.ugen``), force-builds
its auto-indexes, and serves the newline-JSON line protocol (see
:mod:`repro.server.server`) until interrupted.  A quick smoke from a
second shell::

    printf '%s\n' '{"op":"query","sql":"possible (select extendedprice from lineitem where quantity < 24)"}' \
        | nc 127.0.0.1 5433 | head -c 300
"""

from __future__ import annotations

import argparse
import time


def main() -> None:
    parser = argparse.ArgumentParser(description="repro query server (TCP line protocol)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument("--scale", type=float, default=0.001, help="TPC-H scale factor")
    parser.add_argument("--uncertainty", type=float, default=0.01, help="uncertainty ratio x")
    parser.add_argument("--correlation", type=float, default=0.25, help="correlation ratio z")
    parser.add_argument("--workers", type=int, default=8, help="executor worker threads")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    from repro.server import QueryServer
    from repro.ugen import generate_uncertain

    print(f"generating uncertain TPC-H (scale={args.scale}, x={args.uncertainty}, z={args.correlation}) ...")
    bundle = generate_uncertain(
        scale=args.scale, x=args.uncertainty, z=args.correlation, seed=args.seed
    )
    bundle.udb.build_indexes()
    server = QueryServer(bundle.udb, workers=args.workers)
    handle = server.serve_tcp(args.host, args.port)
    host, port = handle.address
    print(f"serving on {host}:{port} (newline-JSON protocol; Ctrl-C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        handle.close()
        server.close()


if __name__ == "__main__":
    main()
