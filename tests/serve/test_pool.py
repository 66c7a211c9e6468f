"""Tests for the virtual-time worker pool (admission, queueing,
shedding, and the determinism the benchmark's gates depend on)."""

import random

import pytest

from repro.serve.pool import Admission, Rejection, WorkerPool


class TestAdmission:
    def test_idle_pool_starts_immediately(self):
        pool = WorkerPool(workers=2, queue_limit=4)
        schedule = pool.admit(cost=10, now=100)
        assert isinstance(schedule, Admission)
        assert schedule.start == 100
        assert schedule.finish == 110
        assert schedule.latency(100) == 10
        assert schedule.waited(100) == 0

    def test_busy_pool_queues_fifo(self):
        pool = WorkerPool(workers=1, queue_limit=4)
        first = pool.admit(cost=10, now=0)
        second = pool.admit(cost=10, now=0)
        third = pool.admit(cost=10, now=0)
        assert first.start == 0
        assert second.start == first.finish
        assert third.start == second.finish
        assert third.waited(0) == 20

    def test_workers_run_in_parallel(self):
        pool = WorkerPool(workers=3, queue_limit=0)
        finishes = [pool.admit(cost=10, now=0).finish for _ in range(3)]
        assert finishes == [10, 10, 10]

    def test_ties_break_to_lowest_worker(self):
        pool = WorkerPool(workers=3, queue_limit=0)
        assert pool.admit(cost=5, now=0).worker == 0
        assert pool.admit(cost=5, now=0).worker == 1
        assert pool.admit(cost=5, now=0).worker == 2


class TestShedding:
    def test_full_queue_rejects_with_retry_after(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        pool.admit(cost=10, now=0)     # running until 10
        pool.admit(cost=10, now=0)     # queued (starts at 10)
        rejection = pool.admit(cost=10, now=0)
        assert isinstance(rejection, Rejection)
        # The advertised wait is when the queue slot opens: the queued
        # request starts at t=10.
        assert rejection.retry_after == 10
        assert pool.rejected == 1

    def test_zero_queue_limit_is_serve_or_shed(self):
        pool = WorkerPool(workers=1, queue_limit=0)
        assert isinstance(pool.admit(cost=5, now=0), Admission)
        assert isinstance(pool.admit(cost=5, now=0), Rejection)
        # Once the worker frees, admission resumes.
        assert isinstance(pool.admit(cost=5, now=5), Admission)

    def test_retry_after_is_at_least_one(self):
        pool = WorkerPool(workers=1, queue_limit=0)
        pool.admit(cost=0, now=0)
        pool.admit(cost=1, now=0)
        rejection = pool.admit(cost=1, now=0)
        assert isinstance(rejection, Rejection)
        assert rejection.retry_after >= 1

    def test_queue_drains_as_time_passes(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        pool.admit(cost=10, now=0)
        pool.admit(cost=10, now=0)
        assert isinstance(pool.admit(cost=10, now=0), Rejection)
        # At t=15 the queued request has started; the slot is free.
        schedule = pool.admit(cost=10, now=15)
        assert isinstance(schedule, Admission)
        assert schedule.start == 20  # behind the in-flight work


class TestAccounting:
    def test_depth_and_busy_reflect_virtual_time(self):
        pool = WorkerPool(workers=2, queue_limit=8)
        pool.admit(cost=10, now=0)
        pool.admit(cost=20, now=0)
        pool.admit(cost=10, now=0)  # queued behind worker 0
        assert pool.busy_workers(0) == 2
        assert pool.queue_depth(0) == 1
        # At t=15 the queued item has started on worker 0, so both
        # workers are busy but nothing waits.
        assert pool.busy_workers(15) == 2
        assert pool.queue_depth(15) == 0
        assert pool.busy_workers(20) == 0

    def test_stats(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        pool.admit(cost=10, now=0)
        pool.admit(cost=10, now=0)
        pool.admit(cost=10, now=0)
        assert pool.stats() == {
            "workers": 1, "queue_limit": 1, "admitted": 2, "rejected": 1,
            "queued": 1, "busy_seconds": 20,
        }

    def test_determinism(self):
        def run():
            pool = WorkerPool(workers=3, queue_limit=2)
            out = []
            for i in range(50):
                out.append(pool.admit(cost=(i * 7) % 13, now=i // 2))
            return out
        assert run() == run()


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0, queue_limit=1)
        with pytest.raises(ValueError):
            WorkerPool(workers=1, queue_limit=-1)
        with pytest.raises(ValueError):
            WorkerPool(workers=1, queue_limit=1).admit(cost=-1, now=0)


class _ReferencePool:
    """Brute-force model of the pool: it keeps every admitted request
    and recomputes worker availability and queue depth from scratch."""

    def __init__(self, workers, queue_limit):
        self.workers = workers
        self.queue_limit = queue_limit
        self.jobs = []  # (worker, arrival, start, cost)
        self.rejected = 0

    def _free_at(self, worker):
        return max((start + cost for w, _, start, cost in self.jobs
                    if w == worker), default=0)

    def _waiting(self, now):
        return [start for _, _, start, _ in self.jobs if start > now]

    def admit(self, cost, now):
        free = [self._free_at(w) for w in range(self.workers)]
        worker = min(range(self.workers), key=lambda w: (free[w], w))
        start = max(now, free[worker])
        waiting = self._waiting(now)
        if start > now and len(waiting) >= self.queue_limit:
            self.rejected += 1
            return Rejection(retry_after=max(1, min(free + waiting) - now))
        self.jobs.append((worker, now, start, cost))
        return Admission(worker=worker, start=start, finish=start + cost)

    def queue_depth(self, now):
        return len(self._waiting(now))

    def busy_workers(self, now):
        return sum(1 for w in range(self.workers) if self._free_at(w) > now)

    def stats(self):
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "admitted": len(self.jobs),
            "rejected": self.rejected,
            "queued": sum(1 for _, arrival, start, _ in self.jobs
                          if start > arrival),
            "busy_seconds": sum(cost for *_, cost in self.jobs),
        }


def _arrivals(rng, count):
    """(cost, now) pairs in arrival order: same-instant bursts, idle
    gaps, zero costs and repeated costs (so workers tie)."""
    now = 0
    out = []
    while len(out) < count:
        now += rng.choice((0, 0, 1, 2, 5, 30))
        for _ in range(rng.choice((1, 1, 2, 4, 8))):
            out.append((rng.choice((0, 0, 1, 3, 10, 10, 25)), now))
    return out[:count]


class TestAgainstReferenceModel:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_model(self, seed):
        rng = random.Random(seed)
        workers = rng.choice((1, 2, 3, 8))
        queue_limit = rng.choice((0, 0, 1, 2, 5, 16))
        pool = WorkerPool(workers, queue_limit)
        model = _ReferencePool(workers, queue_limit)
        for cost, now in _arrivals(rng, 300):
            assert pool.admit(cost, now) == model.admit(cost, now)
            assert pool.queue_depth(now) == model.queue_depth(now)
            assert pool.busy_workers(now) == model.busy_workers(now)
        assert pool.stats() == model.stats()
