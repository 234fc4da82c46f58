"""Self-time arithmetic of the benchmark's spans, and that untraced passes
leave every pltt name unwrapped."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import Span, Tracer, covered, self_times, wrapped_names  # noqa: E402


def test_covered_is_the_length_of_the_union_clipped_to_the_parent():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(1, 10), (2, 3)], 0, 10) == 9
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.cmd_reconstruct", 0.0, 10.0, -1, 0),
        Span("fileio.read_pltt", 1.0, 3.0, 0, 0),
        Span("ellipsometry.reconstruct", 3.0, 6.0, 0, 0),
        Span("ellipsometry.design_matrix", 3.5, 4.0, 2, 0),
        Span("fileio.write_pltt", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 0.5, 1.0])


def test_pass_metrics_sums_per_pass_and_name():
    tracer = Tracer(spans=[
        Span("learning.learn", 0.0, 4.0, -1, 0),
        Span("learning.loss", 0.5, 1.0, 0, 0),
        Span("learning.loss", 2.0, 3.0, 0, 0),
        Span("fileio.read_pltt", 5.0, 6.0, -1, 1, nbytes=100),
    ])
    totals = tracer.pass_metrics()
    assert totals[0]["learning.loss"]["calls"] == 2
    assert totals[0]["learning.loss"]["s"] == pytest.approx(1.5)
    assert totals[0]["learning.learn"]["self_s"] == pytest.approx(2.5)
    assert totals[1]["fileio.read_pltt"]["bytes"] == 100


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "pltt" or name.startswith("pltt.")
            for attr, value in vars(module).items()}


def test_untraced_pass_leaves_every_pltt_name_unwrapped(tmp_path):
    import run
    from workloads import LearnWorkload

    runner = run.Runner(LearnWorkload(k=4, iterations=30), 0, str(tmp_path), Tracer())
    before = _bindings()

    runner.run_pass("pass", 0, traced=False)
    assert runner.tracer.spans == []
    assert wrapped_names() == []
    assert _bindings() == before

    runner.run_pass("pass", 1, traced=True)
    names = {span.name for span in runner.tracer.spans}
    assert {"cli.cmd_learn_angles", "learning.learn", "learning.loss"} <= names
    assert {span.pass_id for span in runner.tracer.spans} == {0}
    assert wrapped_names() == []
    assert _bindings() == before
    assert runner.failures == []
