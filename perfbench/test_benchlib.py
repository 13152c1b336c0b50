"""Unit tests of the benchmark helpers: ``python3 -m pytest perfbench``."""

import sys
import types

import pytest

from benchlib import Span, Tracer, outermost, self_times, tail_percentile, tree_digest


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_overlapping_children():
    spans = [Span("root", 0.0, 10.0, -1), Span("x", 1.0, 6.0, 0), Span("y", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_outermost_skips_recursive_calls():
    spans = [
        Span("f", 0.0, 4.0, -1),
        Span("g", 1.0, 3.0, 0),
        Span("f", 1.5, 2.5, 1),
        Span("f", 5.0, 6.0, -1),
    ]
    assert [s.start for s in outermost(spans, "f")] == [0.0, 5.0]


def test_tail_percentile_needs_ten_samples_beyond():
    median, n, p, value = tail_percentile([3.0, 1.0, 2.0])
    assert (median, n, p, value) == (2.0, 3, None, None)
    samples = [float(i) for i in range(1, 101)]
    median, n, p, value = tail_percentile(samples)
    assert (median, n, p) == (50.5, 100, 90.0)
    assert value == 90.0 and sum(s > value for s in samples) == 10
    _, n, p, value = tail_percentile([float(i) for i in range(1, 1001)])
    assert (n, p, value) == (1000, 99.0, 990.0)


def test_tree_digest_sees_names_and_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_bytes(b"1,2\n")
    (tmp_path / "y.json").write_bytes(b"{}\n")
    first = tree_digest(tmp_path)
    assert tree_digest(tmp_path) == first
    (tmp_path / "y.json").write_bytes(b"{ }\n")
    assert tree_digest(tmp_path) != first
    (tmp_path / "y.json").write_bytes(b"{}\n")
    (tmp_path / "y.json").rename(tmp_path / "z.json")
    assert tree_digest(tmp_path) != first


def test_tracer_wraps_every_binding_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    lib.work = work
    user.work = work  # bound by name, as ``from .lib import work`` does
    user.call = lambda x: user.work(x)
    for name, module in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install(lib, "work", "lib.work", package="fakepkg",
                   after=lambda _pre, args, _kw, result: {"in": args[0], "out": result})
    assert user.call(1) == 2 and lib.work(5) == 6
    assert [(s.name, s.counts) for s in tracer.spans] == [
        ("lib.work", {"in": 1, "out": 2}),
        ("lib.work", {"in": 5, "out": 6}),
    ]
    tracer.uninstall()
    assert lib.work is work and user.work is work
