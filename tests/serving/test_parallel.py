"""Unit tests for the shard execution backends.

Cluster-level parity of the backends lives in ``test_cluster.py``; this file
tests the executors as components: pinning, concurrency, exception
propagation, re-entrancy and lifecycle.
"""

import threading

import pytest

from repro.serving.parallel import (
    SerialExecutor,
    ThreadExecutor,
    available_cpus,
    make_executor,
)
from tests.serving.backends import backend


class TestSerialExecutor:
    def test_runs_inline_on_caller(self):
        executor = SerialExecutor()
        assert executor.run(0, threading.get_ident) == threading.get_ident()

    def test_submit_runs_each_job_before_returning(self):
        """Each handle comes back already complete, in submission order —
        the reason serial waits never reach a round deadline."""
        executor = SerialExecutor()
        order = []
        handles = []
        for shard in (2, 0, 1):
            handles.append(
                executor.submit(shard, lambda shard=shard: order.append(shard) or shard * 10)
            )
            assert order[-1] == shard and handles[-1].done.is_set()
        assert order == [2, 0, 1]
        assert [handle.result for handle in handles] == [20, 0, 10]


class TestThreadExecutor:
    def test_shards_are_pinned_to_one_thread(self):
        """Every run for a shard must execute on the same worker thread,
        across many dispatches — the invariant that keeps session state
        single-threaded without locks."""
        with ThreadExecutor(num_shards=4) as executor:
            homes = {shard: set() for shard in range(4)}
            for _ in range(20):
                for shard in range(4):
                    homes[shard].add(executor.run(shard, threading.get_ident))
            for shard, idents in homes.items():
                assert len(idents) == 1, shard
                assert threading.get_ident() not in idents

    def test_each_shard_has_its_own_worker(self):
        with ThreadExecutor(num_shards=4) as executor:
            idents = [executor.run(shard, threading.get_ident) for shard in range(4)]
            assert len(set(idents)) == 4
            assert len(executor._threads) == 4

    def test_submitted_jobs_run_concurrently(self):
        """All four jobs hold a barrier simultaneously: with one worker per
        shard they must all be in flight at once to get past it."""
        barrier = threading.Barrier(4, timeout=5.0)
        with ThreadExecutor(num_shards=4) as executor:
            jobs = [
                executor.submit(shard, lambda: barrier.wait() is not None)
                for shard in range(4)
            ]
            results = [job.wait() for job in jobs]
        assert results == [True] * 4

    def test_a_failing_job_touches_no_other_shards_job(self):
        """One shard's error stays on its own handle: another shard's job
        still in flight runs to completion, and the failed shard's worker
        keeps serving."""
        release = threading.Event()

        def blocked():
            assert release.wait(timeout=5.0)
            return "zero"

        def fail():
            raise RuntimeError("shard-1")

        with ThreadExecutor(num_shards=3) as executor:
            jobs = [
                executor.submit(0, blocked),
                executor.submit(1, fail),
                executor.submit(2, lambda: "two"),
            ]
            assert jobs[1].done.wait(timeout=5.0)
            assert isinstance(jobs[1].error, RuntimeError)
            assert not jobs[0].done.is_set()
            release.set()
            assert [jobs[0].wait(), jobs[2].wait()] == ["zero", "two"]
            assert executor.run(1, lambda: "one") == "one"

    def test_exception_propagates_from_run(self):
        with ThreadExecutor(num_shards=2) as executor:
            with pytest.raises(ValueError, match="boom"):
                executor.run(1, lambda: (_ for _ in ()).throw(ValueError("boom")))

    def test_reentrant_run_executes_inline(self):
        """A job already on a shard's pinned worker may run() for the same
        shard again without deadlocking (the worker-side drain loop does
        exactly this)."""
        with ThreadExecutor(num_shards=2) as executor:

            def outer():
                inner_ident = executor.run(0, threading.get_ident)
                return inner_ident == threading.get_ident()

            assert executor.run(0, outer) is True

    def test_reentrant_submit_executes_inline(self):
        """A job on a shard's pinned worker may submit() for the same shard
        and wait on the handle: the job runs inline, as a re-entrant run()
        does, instead of queueing behind the job that waits for it."""
        with ThreadExecutor(num_shards=2) as executor:

            def outer():
                return executor.submit(0, threading.get_ident).wait() == threading.get_ident()

            job = executor.submit(0, outer)
            assert job.done.wait(timeout=5.0), "re-entrant submit deadlocked"
            assert job.wait() is True

    def test_close_is_idempotent_and_rejects_new_work(self):
        executor = ThreadExecutor(num_shards=2)
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run(0, lambda: None)

    def test_submit_racing_close_raises_or_completes_never_hangs(self):
        """A submitter overlapping close() must either get its result or the
        'executor is closed' error — a job must never be enqueued behind the
        shutdown sentinel, where no worker would ever complete it."""
        for _ in range(20):
            executor = ThreadExecutor(num_shards=1)
            outcomes = []

            def hammer():
                try:
                    for _ in range(50):
                        outcomes.append(executor.run(0, lambda: 1))
                except RuntimeError as error:
                    outcomes.append(str(error))

            submitter = threading.Thread(target=hammer, daemon=True)
            submitter.start()
            executor.close()
            submitter.join(timeout=5.0)
            assert not submitter.is_alive(), "submitter hung on a lost job"
            assert outcomes  # every attempt resolved to a value or the error

    def test_out_of_range_shard_rejected(self):
        with ThreadExecutor(num_shards=2) as executor:
            with pytest.raises(IndexError):
                executor.run(2, lambda: None)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(num_shards=0)


@pytest.mark.parametrize("label", ["serial", "thread"])
class TestExecutorContract:
    """The :class:`ShardExecutor` contract the cluster relies on, on every
    backend leg: results and errors come back through ``run`` and through
    ``submit``'s handle, one shard's jobs run in submission order on one
    context, and nested runs complete."""

    NUM_SHARDS = 4

    @pytest.fixture
    def executor(self, label):
        executor = make_executor(backend(label)["executor"], self.NUM_SHARDS)
        yield executor
        executor.close()

    @staticmethod
    def _raise(message):
        raise ValueError(message)

    def test_run_returns_result_and_reraises_errors(self, executor):
        assert executor.run(0, lambda: 7) == 7
        with pytest.raises(ValueError, match="boom"):
            executor.run(1, lambda: self._raise("boom"))
        # a failed job leaves its shard's context serving
        assert executor.run(1, lambda: 8) == 8

    def test_submit_hands_back_a_completed_handle(self, executor):
        job = executor.submit(2, lambda: "done")
        assert job.done.wait(timeout=5.0)
        assert job.error is None
        assert job.wait() == "done"

    def test_submit_keeps_the_error_on_the_handle(self, executor):
        job = executor.submit(3, lambda: self._raise("job failed"))
        assert job.done.wait(timeout=5.0)
        assert isinstance(job.error, ValueError)
        with pytest.raises(ValueError, match="job failed"):
            job.wait()

    def test_one_shards_jobs_run_in_submission_order(self, executor):
        """Per-shard FIFO, interleaved with other shards' jobs: the order
        contract push delivery leans on."""
        seen = {shard: [] for shard in range(self.NUM_SHARDS)}
        jobs = [
            executor.submit(shard, lambda shard=shard, step=step: seen[shard].append(step))
            for step in range(25)
            for shard in range(self.NUM_SHARDS)
        ]
        for job in jobs:
            job.wait()
        assert seen == {shard: list(range(25)) for shard in range(self.NUM_SHARDS)}

    def test_shard_affinity_is_stable(self, executor, label):
        homes = {shard: set() for shard in range(self.NUM_SHARDS)}
        for _ in range(10):
            for shard in range(self.NUM_SHARDS):
                homes[shard].add(executor.run(shard, threading.get_ident))
        assert all(len(idents) == 1 for idents in homes.values())
        contexts = set().union(*homes.values())
        if label == "serial":
            assert contexts == {threading.get_ident()}
        else:
            assert len(contexts) == self.NUM_SHARDS
            assert threading.get_ident() not in contexts

    def test_nested_run_on_any_shard_completes(self, executor):
        """A job may run work on any shard, its own included — its own
        shard is pinned to the very thread running the job, which must
        execute it inline instead of queueing behind itself."""

        def outer():
            return [executor.run(shard, lambda shard=shard: shard * 10) for shard in range(4)]

        job = executor.submit(0, outer)
        assert job.done.wait(timeout=5.0), "nested run deadlocked"
        assert job.wait() == [0, 10, 20, 30]


class TestMakeExecutor:
    def test_builds_all_backends(self):
        assert isinstance(make_executor("serial", 2), SerialExecutor)
        thread = make_executor("thread", 2)
        assert isinstance(thread, ThreadExecutor)
        thread.close()

    def test_unknown_backend_rejected(self):
        for name in ("fork", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                make_executor(name, 2)

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1


class TestAvailableCpusCgroupAwareness:
    """``available_cpus()`` must respect container CPU quotas, not just the
    affinity mask — a cgroup-limited box often shows every host core in
    ``sched_getaffinity`` while CFS bandwidth caps actual parallelism."""

    def _with_cgroup_files(self, monkeypatch, tmp_path, v2=None, v1=None):
        from repro.serving import parallel

        v2_path = tmp_path / "cpu.max"
        quota_path = tmp_path / "cfs_quota_us"
        period_path = tmp_path / "cfs_period_us"
        if v2 is not None:
            v2_path.write_text(v2 + "\n")
        if v1 is not None:
            quota_path.write_text(str(v1[0]) + "\n")
            period_path.write_text(str(v1[1]) + "\n")
        monkeypatch.setattr(parallel, "_CGROUP_V2_CPU_MAX", str(v2_path))
        monkeypatch.setattr(parallel, "_CGROUP_V1_CFS_QUOTA", str(quota_path))
        monkeypatch.setattr(parallel, "_CGROUP_V1_CFS_PERIOD", str(period_path))
        return parallel

    def test_v2_quota_caps_the_count(self, monkeypatch, tmp_path):
        parallel = self._with_cgroup_files(monkeypatch, tmp_path, v2="200000 100000")
        assert parallel._cgroup_cpu_limit() == 2

    def test_v2_fractional_quota_rounds_up_with_floor_one(self, monkeypatch, tmp_path):
        parallel = self._with_cgroup_files(monkeypatch, tmp_path, v2="50000 100000")
        assert parallel._cgroup_cpu_limit() == 1
        assert parallel.available_cpus() >= 1

    def test_v2_max_means_unlimited(self, monkeypatch, tmp_path):
        parallel = self._with_cgroup_files(monkeypatch, tmp_path, v2="max 100000")
        assert parallel._cgroup_cpu_limit() is None

    def test_v1_quota_and_period(self, monkeypatch, tmp_path):
        parallel = self._with_cgroup_files(monkeypatch, tmp_path, v1=(300000, 100000))
        assert parallel._cgroup_cpu_limit() == 3

    def test_v1_negative_quota_means_unlimited(self, monkeypatch, tmp_path):
        parallel = self._with_cgroup_files(monkeypatch, tmp_path, v1=(-1, 100000))
        assert parallel._cgroup_cpu_limit() is None

    def test_missing_cgroup_files_mean_unlimited(self, monkeypatch, tmp_path):
        parallel = self._with_cgroup_files(monkeypatch, tmp_path)
        assert parallel._cgroup_cpu_limit() is None

    def test_quota_never_raises_available_cpus(self, monkeypatch, tmp_path):
        """A huge quota must not report more CPUs than the affinity mask."""
        parallel = self._with_cgroup_files(monkeypatch, tmp_path, v2="6400000 100000")
        unpatched = parallel.available_cpus()
        assert unpatched <= 64
        quota = parallel._cgroup_cpu_limit()
        assert quota == 64
        assert parallel.available_cpus() == min(unpatched, quota)
