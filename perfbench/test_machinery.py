"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import spec  # noqa: E402
from perfbench.measure import (  # noqa: E402
    REFERENCE_KERNEL_S,
    SpeedProbe,
    highest_supported,
    percentile,
    samples_beyond,
)
from perfbench.tracing import Patcher, Tracer, self_times  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 1]


class TestSelfTimes:
    def test_nested_tree(self):
        spans = [
            span("op", 0, 100, -1),
            span("db.put", 5, 95, 0),
            span("types.wrap", 10, 30, 1),
            span("store.put", 40, 70, 1),
            span("store.put", 45, 60, 3),
        ]
        assert self_times(spans) == [10, 40, 20, 15, 15]
        assert sum(self_times(spans)) == 100

    def test_overlapping_children_count_once(self):
        spans = [span("a", 0, 100, -1), span("b", 10, 50, 0), span("c", 40, 60, 0)]
        assert self_times(spans)[0] == 50

    def test_child_clipped_to_parent(self):
        spans = [span("a", 0, 100, -1), span("b", 10, 120, 0)]
        assert self_times(spans)[0] == 10

    def test_tracer_folds_an_op(self):
        ticks = iter([0, 10, 30, 60, 90, 100])
        tracer = Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap(lambda: None, "store.get")
        outer = tracer.wrap(lambda: inner(), "db.get")
        tracer.begin_op("get")
        outer()
        tracer.end_op()
        # root 0..100, db.get 10..90, store.get 30..60
        assert tracer.self_ns == {"db.get": 50, "store.get": 30}
        assert tracer.kinds["get"] == [1, 100, 80]
        assert tracer.self_sum_gaps() == {"get": pytest.approx(0.2)}
        assert tracer.outer_calls == {"db.get": 1, "store.get": 1}
        assert [s[0] for s in tracer.kept] == ["get", "db.get", "store.get"]

    def test_calls_outside_an_op_are_not_recorded(self):
        tracer = Tracer()
        traced = tracer.wrap(lambda: 7, "store.get")
        assert traced() == 7
        assert not tracer.spans and not tracer.calls

    def test_generator_functions_are_refused(self):
        def gen():
            yield 1

        with pytest.raises(TypeError):
            Tracer().wrap(gen, "x.gen")


class TestPercentiles:
    def test_linear_interpolation(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == pytest.approx(50.5)
        assert percentile(values, 0.9) == pytest.approx(90.1)
        assert percentile([7.0], 0.9) == 7.0

    def test_samples_beyond(self):
        assert samples_beyond(100, 0.9) == 10
        assert samples_beyond(99, 0.9) == 10
        assert samples_beyond(90, 0.9) == 9
        assert samples_beyond(1000, 0.99) == 10
        assert samples_beyond(0, 0.5) == 0

    def test_highest_supported(self):
        assert highest_supported(20) == 0.5
        assert highest_supported(100) == 0.9
        assert highest_supported(1000) == 0.99
        assert highest_supported(19) is None

    def test_tails_have_enough_samples_when_named(self):
        for q in spec.TAILS.values():
            assert samples_beyond(int(spec.MIN_BEYOND / (1 - q)) + 1, q) >= spec.MIN_BEYOND


class TestSpeedProbe:
    def test_scale_uses_the_nearest_kernel_timings(self):
        probe = SpeedProbe()
        probe.at = [float(t) for t in range(10)]
        probe.took = [REFERENCE_KERNEL_S] * 5 + [2 * REFERENCE_KERNEL_S] * 5
        assert probe.scale(1.0) == pytest.approx(1.0)
        assert probe.scale(8.5) == pytest.approx(0.5)
        # between the regimes the median of three each side decides
        assert probe.scale(5.5) == pytest.approx(0.5)
        assert probe.scale(4.5) == pytest.approx(1 / 1.5)

    def test_scale_needs_a_timing(self):
        with pytest.raises(ValueError):
            SpeedProbe().scale(0.0)


class TestPatcher:
    def make_modules(self, monkeypatch):
        home = types.ModuleType("pb_home")

        def work(x):
            return x + 1

        home.work = work
        alias = types.ModuleType("pb_alias")
        alias.renamed = work  # ``from pb_home import work as renamed``
        monkeypatch.setitem(sys.modules, "pb_home", home)
        monkeypatch.setitem(sys.modules, "pb_alias", alias)

        class Base:
            def get(self):
                return "base"

            @staticmethod
            def digest(data):
                return len(data)

        class Child(Base):
            pass

        home.Base, home.Child = Base, Child
        return home, alias, work

    def test_every_import_site_is_wrapped_and_restored(self, monkeypatch):
        home, alias, work = self.make_modules(monkeypatch)
        base_get = home.Base.__dict__["get"]
        digest = home.Base.__dict__["digest"]
        points = [
            ("pb_home:Child", "get", "store.get"),
            ("pb_home:Base", "get", "store.base_get"),
            ("pb_home:Base", "digest", "chunk.digest"),
            ("pb_home", "work", "types.work"),
        ]
        tracer = Tracer()
        patcher = Patcher(tracer)
        patcher.install(points)
        assert home.work is not work and alias.renamed is home.work
        tracer.begin_op("op")
        assert alias.renamed(1) == 2
        assert home.Child().get() == "base"
        assert home.Base().get() == "base"
        assert home.Base.digest(b"abc") == 3
        tracer.end_op()
        assert dict(tracer.calls) == {
            "types.work": 1, "store.get": 1, "store.base_get": 1, "chunk.digest": 1
        }
        assert patcher.leftover_wrappers()
        patcher.uninstall()
        patcher.check_restored()
        assert home.work is work and alias.renamed is work
        assert "get" not in home.Child.__dict__
        assert home.Base.__dict__["get"] is base_get
        assert home.Base.__dict__["digest"] is digest

    def test_check_restored_catches_a_leftover(self, monkeypatch):
        home, alias, work = self.make_modules(monkeypatch)
        patcher = Patcher(Tracer())
        patcher.install([("pb_home", "work", "types.work")])
        wrapper = home.work
        patcher.uninstall()
        alias.stale = wrapper
        with pytest.raises(RuntimeError, match="pb_alias.stale"):
            patcher.check_restored()

    def test_program_trace_points_unwrap_cleanly(self):
        import repro.store.durability as durability
        from repro.db.engine import ForkBase
        from repro.faults.retry import RetryPolicy

        from perfbench.layers import trace_points
        from perfbench.tracing import import_package

        import_package("repro")
        before = (os.fsync, ForkBase.__dict__["put"], RetryPolicy.__dict__["call"],
                  durability.write_bytes)
        patcher = Patcher(Tracer())
        patcher.install(trace_points())
        assert os.fsync is not before[0]
        patcher.uninstall()
        patcher.check_restored()
        after = (os.fsync, ForkBase.__dict__["put"], RetryPolicy.__dict__["call"],
                 durability.write_bytes)
        assert after == before


class TestBenchmarkJson:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_matches_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            assert json.load(handle) == spec.benchmark_json()

    def test_within_format_limits(self):
        doc = spec.benchmark_json()
        names = [w["name"] for w in doc["workloads"]]
        names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        assert len(names) == len(set(names))
        assert all(self.NAME.match(name) for name in names)
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
        assert 2 <= len(doc["workloads"]) <= 8
        assert 1 <= len(doc["per_layer"]) <= 128
        for metric in doc["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in doc["end_to_end"] + doc["per_layer"]:
            assert self.UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
        assert set(spec.VERBS) == set(names[: len(doc["workloads"])])
