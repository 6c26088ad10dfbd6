"""Execution-backend legs shared by the serving suites' parity matrices.

A leg label names one ``ClusterConfig`` execution topology:

* ``serial`` — every shard runs inline on the caller (the reference);
* ``thread`` — one pinned worker thread per shard (the default pool);
* ``thread-shared`` — a single worker thread for every shard
  (``num_workers=1``): sibling shards queue behind each other on one thread,
  so a fan-out round completes shard by shard while the caller waits on
  every job handle.

Suites build their configs with ``ClusterConfig(**backend(label), ...)``.
"""

BACKENDS = {
    "serial": {"executor": "serial"},
    "thread": {"executor": "thread"},
    "thread-shared": {"executor": "thread", "num_workers": 1},
}


def backend(label):
    """``ClusterConfig`` keyword arguments of a leg label."""
    return dict(BACKENDS[label])


def distinct_at(label, num_shards):
    """Whether the leg is its own topology at this shard count: with one
    shard, ``thread-shared`` is the plain ``thread`` pool."""
    return num_shards > 1 or label != "thread-shared"
