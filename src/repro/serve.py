"""``python -m repro.serve`` — stand up the HTTP serving tier from the CLI.

Builds a seeded demo KVEC model (same construction as the serving tests:
deterministic weights from ``--seed``) over the canonical two-field value
spec, wraps it in a :class:`~repro.serving.cluster.ServingCluster` →
:class:`~repro.serving.aio.AsyncServingGateway` →
:class:`~repro.serving.net.server.ServingHTTPServer` stack and serves
until interrupted:

.. code-block:: console

   $ python -m repro.serve --port 8035 --num-shards 4 --executor thread
   serving on http://127.0.0.1:8035 (4 shards, thread executor)
   $ curl -X POST localhost:8035/v1/streams/alpha/events \\
         -d '{"time": 0.1, "key": "k1", "value": [3, 1]}'

``--selftest N`` instead drives a loopback
:class:`~repro.serving.net.client.ServingHTTPClient` through N synthetic
events, prints the summary and exits — the smoke path CI and the test
suite use to cover this entrypoint end to end.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

import numpy as np

from repro.core.config import KVECConfig
from repro.core.model import KVEC
from repro.data.items import ValueSpec
from repro.serving import ClusterConfig, EngineConfig
from repro.serving.net import ServingHTTPClient, ServingHTTPServer

__all__ = ["build_parser", "main"]

#: The demo value spec (matches the serving test fixtures).
SPEC = ValueSpec(
    field_names=("size", "direction"), cardinalities=(8, 2), session_field=1
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="HTTP serving tier over a demo early-classification model",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8035, help="0 binds an ephemeral port"
    )
    parser.add_argument("--num-shards", type=int, default=2)
    parser.add_argument(
        "--executor", choices=("serial", "thread"), default="serial"
    )
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--window", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-buffered",
        type=int,
        default=256,
        help="decision-stream buffer bound (0 = unbounded)",
    )
    parser.add_argument(
        "--selftest",
        type=int,
        default=None,
        metavar="N",
        help="submit N synthetic loopback events, print a summary, exit",
    )
    return parser


def _build_stack(args) -> ServingHTTPServer:
    model = KVEC(
        SPEC,
        num_classes=3,
        config=KVECConfig(
            d_model=12,
            num_blocks=2,
            num_heads=2,
            ffn_hidden=20,
            d_state=16,
            dropout=0.0,
            encoding="rotary",
            seed=args.seed,
        ),
    )
    config = ClusterConfig(
        num_shards=args.num_shards,
        batch_size=args.batch_size,
        executor=args.executor,
        engine=EngineConfig(
            window_items=args.window, halt_threshold=0.5, reencode_every=2
        ),
    )
    return ServingHTTPServer(
        model=model,
        spec=SPEC,
        config=config,
        host=args.host,
        port=args.port,
        max_buffered=args.max_buffered,
    )


async def _selftest(server: ServingHTTPServer, num_events: int, seed: int) -> int:
    """Loopback smoke: submit synthetic traffic, stream decisions, flush."""
    rng = np.random.default_rng(seed)
    streams = [f"stream-{i}" for i in range(4)]
    async with server:
        client = ServingHTTPClient(server.host, server.port)
        async with client:
            statuses = {}
            for step in range(num_events):
                stream_id = streams[int(rng.integers(len(streams)))]
                result = await client.submit(
                    stream_id,
                    key=f"k{int(rng.integers(4))}",
                    value=[int(rng.integers(8)), int(rng.integers(2))],
                    time=float(step),
                )
                statuses[result.status] = statuses.get(result.status, 0) + 1
            flushed = await client.flush()
            stats = await client.stats()
        print(
            f"selftest: {num_events} events over {len(streams)} streams -> "
            f"statuses {statuses}, {len(flushed)} flushed decisions, "
            f"{stats['num_decided']} keys decided"
        )
    return 0


async def _serve_forever(server: ServingHTTPServer, executor: str) -> int:
    async with server:
        print(
            f"serving on http://{server.host}:{server.port} "
            f"({server.gateway.cluster.config.num_shards} shards, "
            f"{executor} executor)",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.selftest is not None and args.selftest < 1:
        parser.error(f"--selftest must be at least 1, got {args.selftest}")
    try:
        server = _build_stack(args)
    except ValueError as error:
        parser.error(str(error))
    try:
        if args.selftest is not None:
            return asyncio.run(_selftest(server, args.selftest, args.seed))
        return asyncio.run(_serve_forever(server, args.executor))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
