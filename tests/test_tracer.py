"""The benchmark's tracer (``perfbench/spans.py``) against the package it wraps.

The tracer replaces public functions of the package by name while it is
installed.  A renamed or removed one makes entering it fail, and every
traced benchmark run with it, so the names it wraps are part of the
package's interface.
"""

import importlib.util
from pathlib import Path

from hyperatl import cli, solver
from hyperatl.cli import CheckConfig, SystemSpec, bundled_asset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_names_the_package_has_and_puts_back_the_originals():
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer:
        wrapped = list(tracer._restore)
        assert len(wrapped) >= 15
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
        # one traced check and one traced solve, as a traced benchmark pass runs them
        tracer.check_id = "p1-od"
        report = cli.run(CheckConfig(systems=[SystemSpec("G", str(bundled_asset("p1.imp")))], prop="od"))
        assert report.verdict == "satisfied"
        game = solver.ParityGame(succ=[[1], [0, 1]], owner=[0, 1], priority=[1, 2])
        regions, s0, s1 = solver.zielonka(game)
        assert solver.verify_strategy(game, regions, s0, s1)
        metrics = tracer.end_pass()["metrics"]
    assert metrics["solver.priorities"] > 0 and metrics["arena.vertices"] > 0
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
