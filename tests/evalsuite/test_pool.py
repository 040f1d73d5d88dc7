"""Cross-process regression for pool reuse.

The promise under test: back-to-back grid dispatches of the same worker
count share one warmed pool instead of spawning a new one each time.
Result identity of pooled and serial runs is pinned in
``tests/evalsuite/test_parallel.py``.
"""

from repro.parallel import GridCell, get_pool_manager, run_cells


def _parity_cells(values):
    return [
        GridCell("repro.analysis.bits:parity", {"value": value}) for value in values
    ]


class TestPoolModeIdentity:
    def test_persistent_pool_is_reused_across_dispatches(self):
        cells = _parity_cells(range(4))
        run_cells(cells, jobs=2)
        manager = get_pool_manager()
        parked = dict(manager._parked)
        assert parked, "a pooled dispatch must park its pool"
        run_cells(cells, jobs=2)
        # the second dispatch reused the parked pool instead of building
        # (and parking) another one
        assert dict(manager._parked) == parked
