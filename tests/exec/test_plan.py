"""Tests for work-unit enumeration and shard planning."""

import numpy as np
import pytest

from repro.errors import ExecError
from repro.exec import CHUNKS_PER_JOB, ShardPlan, WorkUnit, execute, shard_unit


@shard_unit
def _double(x):
    return 2 * x


@shard_unit
def _draw(rng):
    return int(rng.integers(0, 2**31))


def _plan(n):
    return ShardPlan.enumerate(_double, [(i,) for i in range(n)])


def _drawing_plan(parent):
    plan = ShardPlan.enumerate(_draw, [() for _ in range(6)])
    return plan.with_spawned_streams(parent)


class TestWorkUnit:
    def test_run_applies_args_and_kwargs(self):
        unit = WorkUnit(
            index=0, fn=shard_unit(lambda a, b=0: a + b), args=(2,),
            kwargs={"b": 3},
        )
        assert unit.run() == 5

    def test_an_unmarked_fn_is_refused(self):
        """Every unit function carries ``@shard_unit``, so RL007 roots
        at every one."""
        with pytest.raises(ExecError, match="shard_unit"):
            WorkUnit(index=0, fn=lambda: 0)
        with pytest.raises(ExecError, match="shard_unit"):
            ShardPlan.enumerate(abs, [(-1,)])

    def test_describe_prefers_label(self):
        assert WorkUnit(index=3, fn=_double, label="grid[3]").describe() == "grid[3]"
        assert WorkUnit(index=3, fn=_double).describe() == "unit[3]"


class TestShardPlan:
    def test_enumerate_orders_units_by_iteration(self):
        plan = ShardPlan.enumerate(
            _double, [(10,), (20,)], labels=["a", "b"]
        )
        assert [u.args for u in plan.units] == [(10,), (20,)]
        assert [u.label for u in plan.units] == ["a", "b"]
        assert len(plan) == 2

    def test_enumerate_rejects_label_mismatch(self):
        with pytest.raises(ExecError, match="labels"):
            ShardPlan.enumerate(_double, [(1,), (2,)], labels=["only-one"])

    def test_rejects_sparse_indices(self):
        units = [WorkUnit(index=0, fn=_double), WorkUnit(index=2, fn=_double)]
        with pytest.raises(ExecError, match="densely ordered"):
            ShardPlan(units)

    def test_rejects_out_of_order_indices(self):
        units = [WorkUnit(index=1, fn=_double), WorkUnit(index=0, fn=_double)]
        with pytest.raises(ExecError):
            ShardPlan(units)


class TestSharding:
    def test_default_chunking_spreads_over_jobs(self):
        plan = _plan(32)
        assert plan.chunk_size(jobs=4) == max(1, 32 // (4 * CHUNKS_PER_JOB))

    def test_chunk_size_validation(self):
        with pytest.raises(ExecError):
            _plan(4).chunk_size(jobs=0)

    def test_shards_preserve_unit_order(self):
        # The engine cuts the units into contiguous shards of
        # chunk_size(jobs), so 10 units over 1 job run as 3+3+3+1 and
        # over 3 jobs one unit per shard.
        assert _plan(10).chunk_size(jobs=1) == 3
        assert _plan(10).chunk_size(jobs=3) == 1

    def test_shard_layout_never_depends_on_completion(self):
        # The layout is a pure function of (len, jobs): the units'
        # arguments, and which of them already ran, do not enter it.
        other = ShardPlan.enumerate(_double, [(i,) for i in range(90, 100)])
        for jobs in (1, 2, 3, 8):
            assert _plan(10).chunk_size(jobs) == other.chunk_size(jobs)


class TestSpawnedStreams:
    def test_streams_drawn_in_unit_order(self):
        plan = _plan(6)
        with_rng = plan.with_spawned_streams(np.random.default_rng(7))
        reference = plan.with_spawned_streams(np.random.default_rng(7))
        ours = [_draw(u.kwargs["rng"]) for u in with_rng.units]
        theirs = [_draw(u.kwargs["rng"]) for u in reference.units]
        assert ours == theirs

    def test_streams_are_decorrelated(self):
        plan = _plan(6).with_spawned_streams(np.random.default_rng(7))
        draws = [_draw(u.kwargs["rng"]) for u in plan.units]
        assert len(set(draws)) == len(draws)

    def test_parent_stream_position_is_shard_independent(self):
        # Spawning happens at plan-build time: the parent generator ends
        # in the same state regardless of how the plan is later sharded.
        parent_a = np.random.default_rng(7)
        parent_b = np.random.default_rng(7)
        serial = execute(_drawing_plan(parent_a), jobs=1)
        sharded = execute(_drawing_plan(parent_b), jobs=4)
        assert serial == sharded
        assert _draw(parent_a) == _draw(parent_b)
