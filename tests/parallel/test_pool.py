"""Unit tests for the pool manager.

The pool tests exercise lease/park/discard bookkeeping only — a
:class:`~concurrent.futures.ProcessPoolExecutor` spawns no workers
until something is submitted, so these stay fast. The cross-process
reuse guarantee is pinned in ``tests/evalsuite/test_pool.py``.
"""

import pytest

from repro.parallel import PoolManager, get_pool_manager


@pytest.fixture
def manager():
    instance = PoolManager()
    yield instance
    instance.shutdown_all()


class TestPoolManager:
    def test_release_parks_and_lease_reuses(self, manager):
        pool = manager.lease(2)
        assert manager.parked_count == 0
        manager.release(pool, 2)
        assert manager.parked_count == 1
        assert manager.lease(2) is pool
        manager.release(pool, 2)

    def test_shapes_do_not_collide(self, manager):
        two = manager.lease(2)
        manager.release(two, 2)
        three = manager.lease(3)
        assert three is not two
        manager.release(three, 3)
        assert manager.parked_count == 2

    def test_discarded_pool_is_never_parked(self, manager):
        pool = manager.lease(2)
        manager.discard(pool)
        # a defensive release after discard must not park the corpse
        manager.release(pool, 2)
        assert manager.parked_count == 0

    def test_broken_pool_is_shut_down_on_release(self, manager):
        pool = manager.lease(2)
        pool._broken = "worker died"
        manager.release(pool, 2)
        assert manager.parked_count == 0

    def test_broken_parked_pool_is_replaced_on_lease(self, manager):
        pool = manager.lease(2)
        manager.release(pool, 2)
        pool._broken = "worker died while parked"
        replacement = manager.lease(2)
        assert replacement is not pool
        manager.release(replacement, 2)

    def test_shutdown_all_clears_parked(self, manager):
        pool = manager.lease(2)
        manager.release(pool, 2)
        manager.shutdown_all()
        assert manager.parked_count == 0

    def test_global_manager_is_a_singleton(self):
        assert get_pool_manager() is get_pool_manager()
