"""Span recording, patching, and the self-time arithmetic."""

import asyncio
import math

import pytest

from bench.tracer import (
    Span,
    Tracer,
    covered_s,
    group_busy_s,
    layer_stats,
    self_times,
)


def _span(sid, name, layer, start, end, parent=None):
    return Span(sid, name, layer, start, end, parent)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds a' [2, 3]) and b [5, 9]
        spans = [
            _span(3, "x.a2", "x", 2.0, 3.0, parent=2),
            _span(2, "x.a", "x", 1.0, 4.0, parent=1),
            _span(4, "y.b", "y", 5.0, 9.0, parent=1),
            _span(1, "z.root", "z", 0.0, 10.0),
        ]
        selfs = self_times(spans)
        assert selfs == {1: pytest.approx(3.0), 2: pytest.approx(2.0),
                         3: pytest.approx(1.0), 4: pytest.approx(4.0)}
        # self times partition the root's wall exactly
        assert math.isclose(sum(selfs.values()), 10.0)

    def test_overlapping_children_are_covered_once(self):
        # two children of one parent overlap (concurrent tasks): [1, 5] u [3, 7]
        spans = [
            _span(2, "x.c", "x", 1.0, 5.0, parent=1),
            _span(3, "x.c", "x", 3.0, 7.0, parent=1),
            _span(1, "x.p", "x", 0.0, 10.0),
        ]
        assert self_times(spans)[1] == pytest.approx(4.0)

    def test_child_outliving_parent_is_clipped(self):
        spans = [_span(2, "x.c", "x", 8.0, 15.0, parent=1), _span(1, "x.p", "x", 0.0, 10.0)]
        assert self_times(spans)[1] == pytest.approx(8.0)

    def test_covered_s(self):
        assert covered_s(0.0, 10.0, [(1, 2), (1.5, 3), (9, 12), (-5, -1)]) == pytest.approx(3.0)
        assert covered_s(0.0, 1.0, []) == 0.0

    def test_layer_stats_counts_recursion_once(self):
        # same-layer recursion: busy time is the outer call, not the sum
        spans = [
            _span(2, "x.f", "x", 1.0, 3.0, parent=1),
            _span(1, "x.f", "x", 0.0, 4.0),
            _span(3, "y.g", "y", 5.0, 6.0),
        ]
        stats = layer_stats(spans)
        assert stats["x"] == {"calls": 2, "busy_s": pytest.approx(4.0),
                              "self_s": pytest.approx(4.0)}
        assert stats["y"]["busy_s"] == pytest.approx(1.0)

    def test_group_busy_counts_nested_members_once(self):
        spans = [
            _span(2, "m.inner", "m", 1.0, 2.0, parent=1),
            _span(1, "m.outer", "m", 0.0, 3.0),
            _span(3, "m.inner", "m", 4.0, 5.0),
        ]
        assert group_busy_s(spans, ["m.outer", "m.inner"]) == pytest.approx(4.0)


class _Thing:
    def work(self, x):
        return helper(x) + 1


def helper(x):
    return 2 * x


def gen(n):
    yield from range(n)


class TestPatching:
    def test_method_and_function_spans_nest_and_restore(self):
        original = _Thing.__dict__["work"]
        with Tracer() as tracer:
            tracer.patch_method(_Thing, "work")
            tracer.patch_function(__name__, "helper")
            assert _Thing().work(3) == 7
        assert _Thing.__dict__["work"] is original
        assert globals()["helper"].__name__ == "helper"
        by_name = {s.name: s for s in tracer.spans}
        outer = by_name[f"{__name__}._Thing.work"]
        inner = by_name[f"{__name__}.helper"]
        assert inner.parent == outer.sid and outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_generator_iterations_are_spans(self):
        with Tracer() as tracer:
            tracer.patch_function(__name__, "gen")
            assert list(gen(3)) == [0, 1, 2]
        # three yields plus the final StopIteration
        assert [s.name for s in tracer.spans] == [f"{__name__}.gen"] * 4

    def test_asyncio_tasks_get_their_own_parent(self):
        tracer = Tracer()

        async def child(tag):
            with tracer.span(f"t.{tag}", "t"):
                await asyncio.sleep(0)

        async def main():
            with tracer.span("t.root", "t") as root:
                await asyncio.gather(child("a"), child("b"))
            with tracer.span("t.other", "t"):
                pass
            return root

        root = asyncio.run(main())
        parents = {s.name: s.parent for s in tracer.spans}
        assert parents["t.a"] == root and parents["t.b"] == root
        assert parents["t.other"] is None
