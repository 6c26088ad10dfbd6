"""Execution-backend legs shared by the serving suites' parity matrices.

A leg label names one ``ClusterConfig`` execution topology:

* ``serial`` — every shard runs inline on the caller (the reference);
* ``thread`` — one pinned worker thread per shard.

Suites build their configs with ``ClusterConfig(**backend(label), ...)``.
"""

BACKENDS = {
    "serial": {"executor": "serial"},
    "thread": {"executor": "thread"},
}


def backend(label):
    """``ClusterConfig`` keyword arguments of a leg label."""
    return dict(BACKENDS[label])
