"""Network serving tier: stdlib HTTP front end + multi-cluster routing.

Everything below the wire — sessions, shards, clusters, serial and thread
executors, fault supervision, push gateways — already exists; this package is the layer that makes it reachable without
importing the package:

* :mod:`~repro.serving.net.protocol` — hand-rolled HTTP/1.1 framing over
  ``asyncio`` streams (no third-party dependencies) plus the JSON wire
  codecs for events, decisions and submit results,
* :class:`~repro.serving.net.server.ServingHTTPServer` — ``POST
  /v1/streams/{id}/events`` with admission statuses mapped to response
  codes (accepted → 202, degraded → 503), ``GET /v1/decisions`` as a
  chunked NDJSON server-push stream fed by a bounded
  :class:`~repro.serving.sinks.AsyncQueueSink` (real backpressure into
  the serving layer), ``/v1/stats`` / ``/v1/health`` and
  drain/flush/snapshot admin verbs,
* :class:`~repro.serving.net.client.ServingHTTPClient` — a wire-speaking
  asyncio client so tests and examples exercise the real protocol over
  loopback,
* :class:`~repro.serving.net.router.ClusterRouter` — consistent-hashes
  stream ids across N independent :class:`~repro.serving.cluster.
  ServingCluster` nodes (the same CRC32 ``stable_key_slot`` the shards
  use), aggregates merged stats/health, and migrates live streams
  between nodes via :meth:`~repro.serving.cluster.ServingCluster.
  extract_stream` / ``install_stream`` — decisions before and after a
  move stay bit-identical to an unmoved reference.

``python -m repro.serve`` (see :mod:`repro.serve`) starts a server over a
demo model from the command line.
"""

from repro.serving.net.client import (
    NetDecision,
    NetSubmitResult,
    ServingHTTPClient,
    ServingUnavailableError,
)
from repro.serving.net.protocol import (
    STATUS_TO_HTTP,
    HTTPRequest,
    HTTPResponse,
    WireFormatError,
    decision_to_wire,
    event_from_wire,
    event_to_wire,
    submit_result_to_wire,
)
from repro.serving.net.router import ClusterRouter, RouterSnapshot
from repro.serving.net.server import ServingHTTPServer

__all__ = [
    "STATUS_TO_HTTP",
    "HTTPRequest",
    "HTTPResponse",
    "WireFormatError",
    "event_to_wire",
    "event_from_wire",
    "decision_to_wire",
    "submit_result_to_wire",
    "ServingHTTPServer",
    "ServingHTTPClient",
    "ServingUnavailableError",
    "NetDecision",
    "NetSubmitResult",
    "ClusterRouter",
    "RouterSnapshot",
]
