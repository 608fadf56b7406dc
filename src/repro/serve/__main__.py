"""Command-line entry: ``python -m repro.serve`` — run the sweep service.

Binds the HTTP/JSON exploration service over a persistent result store::

    $ PYTHONPATH=src python -m repro.serve --store /var/tmp/repro-store \\
          --host 127.0.0.1 --port 8377 --workers 4

then submit sweeps with ``python -m repro.explore --server
http://127.0.0.1:8377 ...`` or raw curl (API reference and operator
recipes: ``docs/exploration.md``).  With ``--port 0`` an ephemeral port is
chosen and printed — handy for smoke tests and CI.
"""

from __future__ import annotations

import argparse
import signal
import sys

from .server import SweepServer
from .store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="HTTP/JSON design-space exploration service over a "
                    "persistent result store.",
        epilog="Endpoints: POST /sweeps, GET /sweeps/<id>, "
               "GET /sweeps/<id>/events (NDJSON), GET /sweeps/<id>/results, "
               "GET /results/<key>, GET /healthz.  "
               "See docs/exploration.md for the full operator's guide.")
    parser.add_argument("--store", metavar="DIR", required=True,
                        help="result store directory (created if missing)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8377,
                        help="TCP port; 0 picks an ephemeral port "
                             "(default: 8377)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker-process pool size (default: 2)")
    parser.add_argument("--shard-size", type=int, default=16, metavar="N",
                        help="points per shard — the retry/timeout unit "
                             "(default: 16)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and re-dispatch a shard running longer "
                             "than this (default: no timeout)")
    parser.add_argument("--max-retries", type=int, default=1, metavar="N",
                        help="re-dispatches per shard after worker death or "
                             "timeout before its points fail (default: 1)")
    parser.add_argument("--max-entries", type=int, default=None, metavar="N",
                        help="LRU cap on stored results (default: unbounded)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    store = ResultStore(args.store, max_entries=args.max_entries)
    server = SweepServer(
        store, host=args.host, port=args.port, workers=args.workers,
        shard_size=args.shard_size, shard_timeout=args.shard_timeout,
        max_retries=args.max_retries, verbose=args.verbose)
    # SIGTERM (a plain ``kill``) takes the Ctrl-C path, so the finally
    # clause closes the worker pool instead of orphaning it.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print(f"serving sweeps on {server.url} "
              f"(store: {store.root}, workers: {args.workers})", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
