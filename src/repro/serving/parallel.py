"""Parallel shard execution backends.

The PR-3 cluster made drain rounds cheap (cross-stream batched BLAS) but ran
every shard synchronously on the caller's thread, so adding shards *reduced*
throughput — fewer streams stacked per round — instead of scaling it.  This
module supplies the pieces that turn "sharded" into "scales with cores":

* **Shard executors.**  :class:`ShardExecutor` is the minimal execution
  contract the cluster needs: run one callable with affinity to a shard,
  either waiting for its result (``run``) or getting back a waitable handle
  (``submit``).  Two backends implement it:

  - :class:`SerialExecutor` runs everything inline on the caller (the exact
    PR-3 behaviour) — the reference the thread backend is parity-tested
    against.
  - :class:`ThreadExecutor` keeps a persistent pool with **one worker
    thread per shard**, each with its own FIFO job queue, so a shard's
    session state is only ever touched from a single thread — shards are
    share-nothing, and the pinning keeps them that way without any
    per-session locking.  Because numpy releases the GIL inside its
    GEMM/attention kernels, draining several shards concurrently overlaps
    their BLAS time on real cores — but every shard's *Python* bookkeeping
    still serialises on the one interpreter.  A job that wedges blocks its
    waiter, as it does inline; only :meth:`ThreadExecutor.close` is
    bounded, by its join timeout, and it counts the workers that outlive
    it (``leaked_workers``).

  Determinism: the cluster's fan-out
  (:meth:`~repro.serving.cluster.ServingCluster._fan_out`) submits one job
  per shard and collects the results indexed by shard, so a cluster-level
  drain/flush concatenates per-shard decision lists in stable
  (shard index, round, intra-round) order, whatever order the shards
  finished in — decision-for-decision identical to the serial backend,
  which the cluster parity suite pins.

  The push-delivery layer (:mod:`repro.serving.sinks`) leans on the same
  pinning for its ordering contract: submission-path rounds publish their
  emissions from the shard's pinned execution context, so one shard's —
  and therefore one stream's — deliveries can never reorder even with
  concurrent submitters, while cluster-level fan-outs publish the
  stable-ordered merge at the merge point.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from queue import SimpleQueue
from typing import Callable, List, Optional, TypeVar

T = TypeVar("T")

__all__ = [
    "ShardExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "JobHandle",
    "make_executor",
    "available_cpus",
]


class ShardExecutor:
    """Execution contract for shard work: runs with shard affinity."""

    def run(self, shard_index: int, fn: Callable[[], T]) -> T:
        """Run ``fn`` with affinity to ``shard_index`` and return its result."""
        raise NotImplementedError

    def submit(self, shard_index: int, fn: Callable[[], T]) -> "JobHandle":
        """Dispatch ``fn`` with shard affinity; returns its waitable handle.

        The supervised-fan-out primitive: unlike :meth:`run` the caller gets
        the handle back immediately (inline backends complete it before
        returning), so it can dispatch every shard's job before it waits on
        any.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources.  Idempotent."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JobHandle:
    """One dispatched callable plus its completion signal and outcome.

    ``done`` is set exactly once, after which ``result`` or ``error`` holds
    the outcome; ``wait()`` blocks for completion and re-raises the error.
    """

    __slots__ = ("fn", "done", "result", "error")

    def __init__(self, fn: Callable[[], object]) -> None:
        self.fn = fn
        self.done = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None

    def wait(self) -> object:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.result


def _run_inline(fn: Callable[[], T]) -> JobHandle:
    """Run ``fn`` on the calling thread; returns its completed handle."""
    job = JobHandle(fn)
    try:
        job.result = fn()
    except BaseException as error:
        job.error = error
    finally:
        job.done.set()
    return job


class SerialExecutor(ShardExecutor):
    """Inline execution on the calling thread — the reference backend."""

    def run(self, shard_index: int, fn: Callable[[], T]) -> T:
        return fn()

    def submit(self, shard_index: int, fn: Callable[[], T]) -> JobHandle:
        """Run inline and hand back an already-completed handle."""
        return _run_inline(fn)


class ThreadExecutor(ShardExecutor):
    """Persistent pool of one pinned worker thread per shard.

    Shard ``i`` always executes on worker ``i``: jobs for one shard are
    processed by a single thread in submission order, so shard-local state
    (sessions, KV caches, monitors) never crosses threads and needs no
    locking.

    Re-entrancy: a job that is already running on a shard's pinned worker may
    issue further ``run`` or ``submit`` calls for that shard — they execute
    inline instead of deadlocking behind the queued job that issued them
    (this is how a worker-side ``drain`` loops rounds while callers dispatch
    single rounds, and how a sink publishing from a pinned worker may submit
    back into its cluster).
    """

    def __init__(self, num_shards: int, join_timeout: float = 5.0) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if join_timeout <= 0:
            raise ValueError("join_timeout must be positive")
        self.num_shards = num_shards
        self.join_timeout = join_timeout
        self._queues: List[SimpleQueue] = [SimpleQueue() for _ in range(num_shards)]
        self._threads: List[threading.Thread] = []
        self._closed = False
        #: Orders job submission against close(): both happen under this
        #: lock, so a job can never be enqueued behind the shutdown sentinel
        #: (which would hang its waiter forever instead of raising).
        self._state_lock = threading.Lock()
        #: Workers that outlived the close() join timeout — a non-zero count
        #: means close() leaked threads.
        self.leaked_workers = 0
        for index in range(num_shards):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(self._queues[index],),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    @staticmethod
    def _worker_loop(queue: SimpleQueue) -> None:
        while True:
            job = queue.get()
            if job is None:
                return
            try:
                job.result = job.fn()
            except BaseException as error:  # propagated to the waiter
                job.error = error
            finally:
                job.done.set()

    # ------------------------------------------------------------------ #
    # caller side
    # ------------------------------------------------------------------ #
    def submit(self, shard_index: int, fn: Callable[[], T]) -> JobHandle:
        """Enqueue ``fn`` on the shard's pinned worker; returns its handle.

        Called from that worker itself, ``fn`` runs inline and the handle
        comes back completed (see the class docstring on re-entrancy).
        """
        if not 0 <= shard_index < self.num_shards:
            raise IndexError(f"shard index {shard_index} out of range")
        if threading.current_thread() is self._threads[shard_index]:
            # Already on the shard's pinned thread: queueing would deadlock
            # behind the very job that called us.  Affinity already holds.
            return _run_inline(fn)
        job = JobHandle(fn)
        with self._state_lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            self._queues[shard_index].put(job)
        return job

    def run(self, shard_index: int, fn: Callable[[], T]) -> T:
        return self.submit(shard_index, fn).wait()  # type: ignore[return-value]

    def close(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            for queue in self._queues:
                queue.put(None)
        leaked = 0
        for thread in self._threads:
            thread.join(timeout=self.join_timeout)
            if thread.is_alive():
                leaked += 1
        if leaked:
            self.leaked_workers += leaked
            warnings.warn(
                f"ThreadExecutor.close leaked {leaked} worker thread(s) "
                f"still running after the {self.join_timeout}s join timeout "
                f"(wedged or long-running jobs); they are daemonic and die "
                f"with the process",
                RuntimeWarning,
                stacklevel=2,
            )


def make_executor(name: str, num_shards: int) -> ShardExecutor:
    """Build the executor backend selected by ``ClusterConfig.executor``."""
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(num_shards)
    raise ValueError(f"unknown executor backend {name!r}")


#: cgroup CPU-quota files, monkeypatchable in tests.  v2 first (one file,
#: "``<quota> <period>``" or "``max <period>``"), then the v1 pair.
_CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CGROUP_V1_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _read_first_line(path: str) -> Optional[str]:
    try:
        with open(path, "r") as handle:
            return handle.readline().strip()
    except (OSError, ValueError):
        return None


def _cgroup_cpu_limit() -> Optional[int]:
    """Whole-CPU ceiling from the container's cgroup CFS quota, if any.

    A box with 64 affinity CPUs but a ``200000 100000`` quota can only ever
    run 2 CPUs' worth of work — spawning 64 workers there just multiplies
    context-switch pressure.  Fractional quotas round up (a 0.5-CPU
    container still gets one worker).  Returns ``None`` when unlimited,
    unreadable, or not under a CPU cgroup at all.
    """
    line = _read_first_line(_CGROUP_V2_CPU_MAX)
    if line is not None:
        parts = line.split()
        if len(parts) == 2 and parts[0] != "max":
            try:
                quota, period = int(parts[0]), int(parts[1])
            except ValueError:
                return None
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
        return None
    quota_line = _read_first_line(_CGROUP_V1_CFS_QUOTA)
    period_line = _read_first_line(_CGROUP_V1_CFS_PERIOD)
    if quota_line is None or period_line is None:
        return None
    try:
        quota, period = int(quota_line), int(period_line)
    except ValueError:
        return None
    if quota <= 0 or period <= 0:  # -1 means unlimited
        return None
    return max(1, math.ceil(quota / period))


def available_cpus() -> int:
    """CPUs actually available to this process.

    Affinity-aware (``sched_getaffinity`` sees cpusets and taskset masks,
    where ``os.cpu_count()`` reports the whole machine) *and* cgroup-aware:
    a CFS bandwidth quota caps the answer too, so default worker counts do
    not oversubscribe quota-limited containers whose affinity mask still
    shows every host core.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        count = os.cpu_count() or 1
    quota = _cgroup_cpu_limit()
    if quota is not None:
        count = min(count, quota)
    return max(1, count)
