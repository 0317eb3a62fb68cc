import functools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperatl
import reference_arena
from hyperatl import arena, cli, imp, ltl2dpa
from hyperatl.cli import (
    CheckConfig,
    ConfigError,
    EXIT_RESOURCE,
    EXIT_SATISFIED,
    EXIT_USAGE,
    EXIT_VIOLATED,
    SystemSpec,
    bundled_asset,
    run,
    run_suite,
)
from hyperatl.formula import FormulaError, parse_ltl
from hyperatl.solver import zielonka


def spec(name, transforms=()):
    return SystemSpec("G", str(bundled_asset(name)), transforms)


def test_run_reports_sizes_and_timings(tmp_path):
    report = run(CheckConfig(systems=[spec("p1.imp")], prop="od"))
    assert report.verdict == "satisfied"
    assert report.sizes["system.G.states"] > 0
    assert report.sizes["game.vertices"] > 0
    # one move phase per round: every vertex but a sink begins a round
    assert report.sizes["game.automaton_vertices"] > 0
    assert (
        report.sizes["game.automaton_vertices"] + report.sizes["game.sink_vertices"]
        == report.sizes["game.vertices"]
    )
    assert report.sizes["game.sink_vertices"] <= 2
    # the od body is one safety leaf: its automaton is one live state and
    # the dead state
    assert report.sizes["apa.states"] == 8
    assert report.sizes["nba.states"] == 2
    assert report.sizes["dpa.determinized"] == 0
    assert report.sizes["dpa.safra_steps"] == 0
    assert report.sizes["dpa.states"] == 2
    # the ni body is an obligation: a product of one automaton per leaf,
    # whose APA states and safety automaton states are summed
    ni = run(CheckConfig(systems=[spec("p1.imp")], prop="ni"))
    assert ni.sizes["dpa.determinized"] == 0
    assert ni.sizes["dpa.safra_steps"] == 0
    assert ni.sizes["apa.states"] == 16
    assert ni.sizes["nba.states"] == 4
    assert ni.sizes["dpa.states"] == 3
    # F G is outside the obligation ∧ G F class and determinizes
    fg = tmp_path / "fg.hatl"
    fg.write_text("[ forall p1 . forall p2 . ] F G (o[0]{p1} <-> o[0]{p2})")
    safra = run(CheckConfig(systems=[spec("p1.imp")], formula_file=str(fg)))
    assert safra.sizes["dpa.determinized"] == 1
    assert safra.sizes["dpa.safra_steps"] == 10
    # od and ni bind one system twice under equal coalitions; simsec and
    # sgni bind different systems
    assert report.sizes["game.swap_quotient"] == ni.sizes["game.swap_quotient"] == 1
    for prop in ("simsec", "sgni:3"):
        other = run(CheckConfig(systems=[spec("p1.imp")], prop=prop))
        assert other.sizes["game.swap_quotient"] == 0, prop
    assert set(report.timings_ms) == {"build", "translate", "arena", "solve"}


def test_negated_formula_flips_verdict(tmp_path):
    f1 = tmp_path / "od.hatl"
    f1.write_text("[ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    f2 = tmp_path / "odneg.hatl"
    f2.write_text("! [ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    r1 = run(CheckConfig(systems=[spec("p1.imp")], formula_file=str(f1)))
    r2 = run(CheckConfig(systems=[spec("p1.imp")], formula_file=str(f2)))
    assert r1.verdict == "satisfied"
    assert r2.verdict == "violated"


@pytest.mark.parametrize(
    "body, product, verdict",
    [
        ("true", True, "satisfied"),
        ("false", True, "violated"),
        ("F G true", False, "satisfied"),
        ("F G false", False, "violated"),
    ],
)
def test_a_decided_initial_step_builds_one_sink(tmp_path, body, product, verdict):
    """The step into the initial joint state reaches a decided automaton
    state, on the product route and on the chain route: the game is one sink."""
    f = tmp_path / "decided.hatl"
    f.write_text(f"[ forall p1 . exists p2 . ] {body}")
    dpa = ltl2dpa.ltl_to_dpa(parse_ltl(body), ())
    assert isinstance(dpa, ltl2dpa._ProductDPA) == product
    report = run(CheckConfig(systems=[spec("p1.imp")], formula_file=str(f)))
    assert report.verdict == verdict
    assert report.sizes["game.vertices"] == report.sizes["game.sink_vertices"] == 1


def test_formula_file_with_explicit_bindings(tmp_path):
    f = tmp_path / "simsec.hatl"
    f.write_text(
        "[ forall p1 @ A . <<xi_N>> p2 @ B . ] "
        "(G (l[0]{p1} <-> X l[0]{p2})) -> G (o[0]{p1} <-> X o[0]{p2})"
    )
    config = CheckConfig(
        systems=[
            SystemSpec("A", str(bundled_asset("p3.imp"))),
            SystemSpec("B", str(bundled_asset("p3.imp")), (("shift", 1),)),
        ],
        formula_file=str(f),
    )
    assert run(config).verdict == "satisfied"


def test_two_programs_are_each_quotiented_by_their_own_reads(tmp_path):
    # the body is normalized by the translation alone (``->`` and ``<->``)
    f = tmp_path / "two.hatl"
    f.write_text(
        "[ forall p1 @ G . exists p2 @ H . ] "
        "(G (l[0]{p1} <-> l[0]{p2}) -> G (o[0]{p1} <-> o[0]{p2}))"
    )
    config = CheckConfig(
        systems=[spec("p1.imp"), SystemSpec("H", str(bundled_asset("p2.imp")))],
        formula_file=str(f),
    )
    report = run(config)
    assert report.verdict == "satisfied"
    assert (report.sizes["game.vertices"], report.sizes["game.edges"]) == (33, 38)
    assert (report.sizes["system.G.classes"], report.sizes["system.H.classes"]) == (9, 24)


def test_dumps_written_and_deterministic(tmp_path):
    paths = {
        "dpa": tmp_path / "dpa.dot",
        "game": tmp_path / "game.dot",
        "sys": tmp_path / "sys.dot",
        "report": tmp_path / "report.txt",
    }
    config = CheckConfig(
        systems=[spec("p1.imp")],
        prop="od",
        dump_dpa=str(paths["dpa"]),
        dump_game=str(paths["game"]),
        dump_sys={"G": str(paths["sys"])},
        report_path=str(paths["report"]),
    )
    run(config)
    first = {k: p.read_bytes() for k, p in paths.items()}
    run(config)
    second = {k: p.read_bytes() for k, p in paths.items()}
    for key in ("dpa", "game", "sys"):
        assert first[key] == second[key]
    record = paths["report"].read_text()
    assert record.startswith("verdict satisfied\n")
    assert "game.vertices" in record and "time.solve_ms" in record
    # the loaded structure, built for o[0] (17 states with every bit), and
    # its quotient; peak memory is no size
    assert "system.G.states 13\n" in record and "system.G.classes 9\n" in record
    peak = [line.split() for line in record.splitlines() if line.startswith("mem.")]
    assert len(peak) == 1 and peak[0][0] == "mem.peak_rss_mb" and float(peak[0][1]) > 0
    assert not any(key.startswith("mem.") for key in run(config).sizes)


def test_exit_codes_via_main(tmp_path, capsys):
    prog = str(bundled_asset("p1.imp"))
    assert cli.main(["check", "--system", f"G={prog}", "--prop", "od"]) == EXIT_SATISFIED
    prog3 = str(bundled_asset("p3.imp"))
    assert cli.main(["check", "--system", f"G={prog3}", "--prop", "od"]) == EXIT_VIOLATED
    assert cli.main(["check", "--system", f"G={prog}", "--prop", "nope"]) == EXIT_USAGE
    assert (
        cli.main(["check", "--system", f"G={prog}", "--prop", "od", "--cap-states", "3"])
        == EXIT_RESOURCE
    )
    capsys.readouterr()


def test_vertex_cap_exits_with_one_line(capsys):
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", "od", "--cap-vertices", "1"]
    assert cli.main(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err == "resource limit: vertex cap of 1 exceeded\n"
    assert captured.out == ""


def test_wide_read_hits_the_state_cap_before_its_values_are_enumerated(tmp_path, capsys):
    prog = tmp_path / "wide.imp"
    # o[0] reads every bit of h, so the read branches over all 40 of them
    every_bit = " & ".join(f"h[{i}]" for i in range(40))
    prog.write_text(f"var o:1;\nvar h:40;\nh := read_H;\no := {every_bit};\n")
    argv = ["check", "--system", f"G={prog}", "--prop", "od", "--cap-states", "1000"]
    assert cli.main(argv) == EXIT_RESOURCE
    assert capsys.readouterr().err == "resource limit: state cap of 1000 exceeded\n"


@pytest.mark.parametrize(
    "transform, prop, cap",
    [
        (",shift=2000", "od", 1000),
        ("", "sgni:2000", 1000),
        (",shift=1000000000", "od", 10**6),
        ("", "sgni:1000000000", 10**6),
    ],
)
def test_shift_counts_its_states_against_the_state_cap(capsys, transform, prop, cap):
    """The chain of ``k`` states is refused before any of it is built."""
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}{transform}", "--prop", prop, "--cap-states", str(cap)]
    assert cli.main(argv) == EXIT_RESOURCE
    assert capsys.readouterr().err == f"resource limit: state cap of {cap} exceeded\n"


@pytest.mark.parametrize("transform, prop", [(",stutter", "od"), ("", "od-async")])
def test_stutter_counts_its_states_against_the_state_cap(capsys, transform, prop):
    """``p1`` has 17 states, within the cap, and its stuttered twin 34, refused before it is built."""
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}{transform}", "--prop", prop, "--cap-states", "20"]
    assert cli.main(argv) == EXIT_RESOURCE
    assert capsys.readouterr().err == "resource limit: state cap of 20 exceeded\n"


def test_suite_records_a_capped_row(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CheckConfig", functools.partial(CheckConfig, cap_vertices=1))
    entry = {"name": "capped", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [entry]}))
    rows, ok = run_suite(str(m))
    assert not ok
    assert [(r.name, r.verdict, r.ok, r.message) for r in rows] == [
        ("capped", "cap", False, "vertex cap of 1 exceeded")
    ]


def sgni_on_p1(cap_states):
    prog = bundled_asset("p1.imp")
    return ["check", "--system", f"G={prog}", "--prop", "sgni:3", "--cap-states", str(cap_states)]


def test_state_cap_counts_the_automaton_states_the_arena_reaches(capsys):
    """``p1-sgni`` reads entries that reach 24 of the 586 states of its body's automaton."""
    assert cli.main(sgni_on_p1(24)) == EXIT_SATISFIED
    assert "\ndpa.states 24\n" in capsys.readouterr().out
    assert cli.main(sgni_on_p1(23)) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: state cap of 23 exceeded in the safety automaton\n"


def test_automaton_cap_fires_while_the_arena_is_built():
    config = CheckConfig(systems=[spec("p1.imp")], prop="sgni:3", cap_states=23)
    with pytest.raises(ltl2dpa.AutomatonCapError, match="cap of 23 exceeded") as info:
        run(config)
    assert "build_game" in [entry.name for entry in info.traceback]


def test_dpa_dump_completes_the_automaton(tmp_path):
    dump = tmp_path / "dpa.dot"
    report = run(CheckConfig(systems=[spec("p2.imp")], prop="sgni:3", dump_dpa=str(dump)))
    # the report counts the states the arena reached, before the dump
    assert report.sizes["dpa.states"] == 44
    assert len(re.findall(r"^  q\d+ \[", dump.read_text(), re.M)) == 586


def test_memory_exhaustion_ends_like_a_cap(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(ltl2dpa, "ltl_to_dpa", exhausted)
    prog = str(bundled_asset("p1.imp"))
    assert cli.main(["check", "--system", f"G={prog}", "--prop", "od"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == "resource limit: out of memory\n"
    entry = {"name": "exhausted", "program": prog, "prop": "od"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [entry]}))
    rows, ok = run_suite(str(m))
    assert not ok
    assert [(r.name, r.verdict, r.message) for r in rows] == [("exhausted", "cap", "out of memory")]


def test_usage_errors():
    with pytest.raises(ConfigError):
        run(CheckConfig(systems=[], prop="od"))
    with pytest.raises(ConfigError):
        run(CheckConfig(systems=[spec("p1.imp")]))
    with pytest.raises(ConfigError):
        run(
            CheckConfig(
                systems=[spec("p1.imp"), SystemSpec("H", str(bundled_asset("p2.imp")))],
                prop="od",
            )
        )


def test_width_override_flows_through():
    """``h[1]`` exists only at ``h=2``, and observing it makes the reads branch over it."""
    wide = CheckConfig(systems=[spec("q1.imp")], prop="ni-async:h[1]", widths={"h": 2})
    report = run(wide)
    assert report.verdict == "violated"
    base = run(CheckConfig(systems=[spec("q1.imp")], prop="ni-async")).sizes["system.G.states"]
    assert report.sizes["system.G.states"] > base
    with pytest.raises(FormulaError, match="proposition 'h\\[1\\]' is not labelled"):
        run(CheckConfig(systems=[spec("q1.imp")], prop="ni-async:h[1]", widths={"h": 1}))


def test_input_width_leaves_the_build_of_q1_alone():
    """q1 reads ``h[0]`` only, so at ``h=16`` it builds the states of ``h=1``.

    Branching over all 2^16 values of ``h`` would exceed the state cap at once.
    """
    start = time.perf_counter()
    sizes = [
        run(CheckConfig(systems=[spec("q1.imp")], prop="ni-async", widths={"h": h}, cap_states=10**4)).sizes
        for h in (1, 16)
    ]
    assert time.perf_counter() - start < 2.0
    assert sizes[0]["system.G.states"] == sizes[1]["system.G.states"] == 15
    assert sizes[0]["system.G_stut.classes"] == sizes[1]["system.G_stut.classes"] == 22


def test_q1_at_width_64_is_checked():
    argv = ["check", "--system", f"G={bundled_asset('q1.imp')}", "--prop", "od", "--width", "h=64"]
    assert cli.main(argv) == EXIT_VIOLATED


def test_suite_empty_manifest(tmp_path):
    m = tmp_path / "empty.json"
    m.write_text(json.dumps({"entries": []}))
    rows, ok = run_suite(str(m))
    assert rows == [] and ok


def test_suite_records_a_failing_row_and_goes_on(tmp_path, capsys):
    good = {"name": "good", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    missing = {"name": "missing", "program": str(tmp_path / "none.imp"), "prop": "od"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [missing, good]}))
    rows, ok = run_suite(str(m))
    assert not ok
    assert [(r.name, r.verdict, r.ok) for r in rows] == [
        ("missing", "error", False),
        ("good", "satisfied", True),
    ]
    assert "none.imp" in rows[0].message and "\n" not in rows[0].message
    assert cli.main(["suite", "--manifest", str(m)]) != EXIT_SATISFIED
    out = capsys.readouterr().out
    assert "none.imp" in out and "good" in out


def test_suite_report_writes_the_rows_as_json(tmp_path, capsys):
    good = {"name": "good", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    wrong = dict(good, name="wrong", expect="violated")
    missing = {"name": "missing", "program": str(tmp_path / "none.imp"), "prop": "od"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [good, wrong, missing]}))
    report = tmp_path / "suite.json"
    assert cli.main(["suite", "--manifest", str(m), "--report", str(report)]) == EXIT_VIOLATED
    assert "good" in capsys.readouterr().out
    rows = json.loads(report.read_text())
    assert [(r["name"], r["verdict"], r["expected"], r["ok"]) for r in rows] == [
        ("good", "satisfied", None, True),
        ("wrong", "satisfied", "violated", False),
        ("missing", "error", None, False),
    ]
    fields = {"name", "verdict", "expected", "ok", "ms", "sizes", "message"}
    assert all(set(r) == fields for r in rows)
    assert rows[0]["sizes"] == run(CheckConfig(systems=[spec("p1.imp")], prop="od")).sizes
    assert rows[0]["ms"] > 0 and rows[0]["message"] == ""
    assert rows[2]["sizes"] == {} and "none.imp" in rows[2]["message"]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_suite_unwritable_report_is_a_usage_error(tmp_path, capsys, where):
    m = tmp_path / "m.json"
    one = {"name": "one", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    m.write_text(json.dumps({"entries": [one]}))
    path = tmp_path / "missing" / "suite.json" if where == "missing directory" else tmp_path
    err = usage_error(capsys, ["suite", "--manifest", str(m), "--report", str(path)])
    assert f"cannot write --report {str(path)!r}" in err


def test_solver_work_counters_repeat_exactly():
    config = CheckConfig(systems=[spec("p2.imp")], prop="sgni:3")
    first, second = run(config).sizes, run(config).sizes
    for key in ("solver.calls", "solver.attractor_edges"):
        assert first[key] > 0 and first[key] == second[key]


def test_suite_unknown_manifest():
    with pytest.raises(ConfigError, match="not found"):
        run_suite("no-such-manifest")


def test_bundled_manifests_resolve():
    rows, ok = run_suite("table5a")
    assert ok and len(rows) == 16


def test_stuttered_binding_used_directly_by_async_props():
    # a base system that already carries the scheduler is not transformed again
    report = run(
        CheckConfig(systems=[spec("fig1b.imp", (("stutter",),))], prop="od-async")
    )
    assert report.verdict == "satisfied"
    assert "system.G.states" in report.sizes
    assert "system.G_stut.states" not in report.sizes


def test_exact_arena_flag_matches_fast_path(monkeypatch):
    # the exact game (no skipped stages, no decided sinks) is built by the
    # reference builder from the block that ``run`` passes to the arena
    blocks = []
    original = arena.build_game

    def spy(*args, **kwargs):
        blocks.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(arena, "build_game", spy)
    fast = run(CheckConfig(systems=[spec("p2.imp")], prop="ni"))
    exact = reference_arena.build_game(*blocks.pop(), collapse=False, prune_decided=False)
    assert fast.verdict == "satisfied"
    assert exact.game.initial in zielonka(exact.game)[0].w0
    assert fast.sizes["game.vertices"] <= exact.game.n_vertices


def usage_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("system", ["=p1.imp", "  =p1.imp", "=p1.imp,stutter"])
def test_empty_system_id_is_a_usage_error(capsys, system):
    err = usage_error(capsys, ["check", "--system", system, "--prop", "od"])
    assert "--system expects a non-empty id before '='" in err


def test_non_integer_sgni_lookahead_is_a_usage_error(capsys):
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", "sgni:x"]
    assert "'x'" in usage_error(capsys, argv)
    argv = ["check", "--system", f"G={prog}", "--prop", "sgni:0"]
    assert "shift distance" in usage_error(capsys, argv)


@pytest.mark.parametrize(
    "prop, message",
    [
        ("sgni:", "sgni:k expects an integer, got ''"),
        ("ni-async:", "ni-async:r expects an atomic proposition, got ''"),
        ("ahltl:", "ahltl:n expects an integer, got ''"),
    ],
)
def test_empty_builtin_parameter_is_a_usage_error(capsys, tmp_path, prop, message):
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", prop]
    if prop == "ahltl:":
        body = tmp_path / "f.hatl"
        body.write_text("G (o[0]{p1} <-> o[0]{p2})")
        argv += ["--formula", str(body)]
    assert message in usage_error(capsys, argv)


@pytest.mark.parametrize(
    "prop, with_formula, message",
    [
        ("od:7", False, "'od' takes no parameter"),
        ("ni:1", False, "'ni' takes no parameter"),
        ("simsec:x", False, "'simsec' takes no parameter"),
        ("od-async:2", False, "'od-async' takes no parameter"),
        ("od", True, "--formula goes with --prop ahltl:n only"),
        ("sgni:3", True, "--formula goes with --prop ahltl:n only"),
        ("ni-async:r[0]", True, "--formula goes with --prop ahltl:n only"),
    ],
)
def test_ignored_builtin_input_is_a_usage_error(capsys, tmp_path, prop, with_formula, message):
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", prop]
    if with_formula:
        body = tmp_path / "f.hatl"
        body.write_text("G (o[0]{p1} <-> o[0]{p2})")
        argv += ["--formula", str(body)]
    assert message in usage_error(capsys, argv)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--prop", "ahltl:2"], "--prop ahltl:n needs --formula with the quantifier-free body"),
        (["--prop", "od", "--width", "h"], "--width expects VAR=N, got 'h'"),
        (["--formula", "{formula}", "--system", "G={program}"], "system 'G' bound twice"),
    ],
    ids=["ahltl-without-formula", "width-without-value", "system-bound-twice"],
)
def test_incomplete_check_arguments_are_usage_errors(capsys, tmp_path, args, message):
    prog = str(bundled_asset("p1.imp"))
    formula = tmp_path / "f.hatl"
    formula.write_text("[ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    argv = ["check", "--system", f"G={prog}"]
    argv += [a.format(formula=formula, program=prog) for a in args]
    assert message in usage_error(capsys, argv)


@pytest.mark.parametrize(
    "repeated, message",
    [
        (["--width", "o=2", "--width", "o=1"], "--width 'o' given twice"),
        (["--width", "o=1", "--width", "h=1", "--width", "o=2"], "--width 'o' given twice"),
        (["--dump-sys", "G={tmp}/a.dot", "--dump-sys", "G={tmp}/b.dot"], "--dump-sys 'G' given twice"),
    ],
    ids=["width-last-fits", "width-first-fits", "dump-sys"],
)
@pytest.mark.parametrize("program", ["q1.imp", "missing.imp"])
def test_a_repeated_key_is_a_usage_error_before_any_program_is_read(capsys, tmp_path, repeated, message, program):
    prog = bundled_asset("q1.imp") if program == "q1.imp" else tmp_path / program
    argv = ["check", "--system", f"G={prog}", "--prop", "od", *(a.format(tmp=tmp_path) for a in repeated)]
    assert usage_error(capsys, argv) == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_non_integer_width_is_a_usage_error(capsys):
    prog = str(bundled_asset("q1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", "od", "--width", "h=abc"]
    assert "'abc'" in usage_error(capsys, argv)


def test_missing_ahltl_body_file_is_a_usage_error(capsys):
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", "ahltl:2", "--formula", "/nonexistent"]
    assert "/nonexistent" in usage_error(capsys, argv)


def test_manifest_entry_without_program_is_a_usage_error(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [{"name": "case", "prop": "od"}]}))
    assert "'program'" in usage_error(capsys, ["suite", "--manifest", str(m)])


@pytest.mark.parametrize(
    "width, shown", [("z", "'z'"), (2.7, "2.7"), (True, "True")], ids=["string", "float", "bool"]
)
def test_non_integer_manifest_width_is_a_usage_error(tmp_path, capsys, width, shown):
    m = tmp_path / "m.json"
    entry = {"name": "case", "program": str(bundled_asset("q1.imp")), "prop": "od"}
    m.write_text(json.dumps({"entries": [dict(entry, widths={"h": width})]}))
    message = usage_error(capsys, ["suite", "--manifest", str(m)])
    assert message == f"error: case: --width h expects an integer, got {shown}\n"


def test_unknown_manifest_transform_is_a_usage_error(tmp_path, capsys):
    m = tmp_path / "m.json"
    entry = {"name": "case", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    m.write_text(json.dumps({"entries": [dict(entry, transforms=["stuter"])]}))
    assert "case: unknown transform 'stuter'" in usage_error(capsys, ["suite", "--manifest", str(m)])


@pytest.mark.parametrize("k", ["0", "-1"])
def test_a_shift_below_one_is_a_usage_error_before_any_program_is_read(monkeypatch, capsys, k):
    monkeypatch.setattr(cli, "_load_system", lambda *args: pytest.fail("a program was read"))
    argv = ["check", "--system", f"G={bundled_asset('p1.imp')},shift={k}", "--prop", "od"]
    assert f"shift needs a distance of at least 1, got {k}" in usage_error(capsys, argv)


def test_caps_below_one_are_usage_errors(capsys):
    prog = str(bundled_asset("p1.imp"))
    for flag in ("--cap-states", "--cap-vertices"):
        for value in ("0", "-5"):
            argv = ["check", "--system", f"G={prog}", "--prop", "od", flag, value]
            assert f"{flag} must be at least 1, got {value}" in usage_error(capsys, argv)


def api_config(transforms=(), **fields):
    """A check of ``od`` on ``q1.imp``, with ``fields`` in place of the defaults."""
    fields = {"systems": [spec("q1.imp", transforms)], "prop": "od", **fields}
    return CheckConfig(**fields)


# configs of the wrong shape, each refused with a one-line ConfigError before any program is read
PATH_TYPE = "expects a path (str or os.PathLike), got"
SHAPE_ERRORS = {
    "systems-pairs": (
        {"systems": [("G", "q1.imp")]},
        "--system expects a list of SystemSpec, got [('G', 'q1.imp')]",
    ),
    "systems-string": ({"systems": "G"}, "--system expects a list of SystemSpec, got 'G'"),
    "prop-int": ({"prop": 5}, "--prop expects a string, got 5"),
    "formula-int": ({"prop": None, "formula_file": 5}, f"--formula {PATH_TYPE} 5"),
    "program-int": ({"systems": [SystemSpec("G", 5)]}, f"program of system 'G' {PATH_TYPE} 5"),
    "dump-dpa-int": ({"dump_dpa": 5}, f"--dump-dpa {PATH_TYPE} 5"),
    "report-int": ({"report_path": 7}, f"--report {PATH_TYPE} 7"),
    "dump-sys-int": ({"dump_sys": {"G": 5}}, f"--dump-sys G {PATH_TYPE} 5"),
    "shift-without-distance": ({"transforms": (("shift",),)}, "unknown transform ('shift',)"),
    "stutter-with-argument": ({"transforms": (("stutter", 1),)}, "unknown transform ('stutter', 1)"),
    "shift-bool": ({"transforms": (("shift", True),)}, "shift expects an integer, got True"),
    "shift-zero": ({"transforms": (("shift", 0),)}, "shift needs a distance of at least 1, got 0"),
    "shift-negative": ({"transforms": (("shift", "-1"),)}, "shift needs a distance of at least 1, got -1"),
}


@pytest.mark.parametrize(
    "given, meant",
    [
        ({"transforms": (("shift", "2"),)}, {"transforms": (("shift", 2),)}),
        ({"widths": {"h": "2"}}, {"widths": {"h": 2}}),
        ({"cap_states": "1000"}, {"cap_states": 1000}),
        ({"widths": {"h": 2.0}}, "--width h expects an integer, got 2.0"),
        ({"cap_states": True}, "--cap-states expects an integer, got True"),
        ({"cap_vertices": "many"}, "--cap-vertices expects an integer, got 'many'"),
        ({"widths": [("h", 2)]}, "--width expects a mapping, got [('h', 2)]"),
        ({"transforms": None}, "transforms of system 'G' expect a tuple, got None"),
        ({"transforms": "stutter"}, "transforms of system 'G' expect a tuple, got 'stutter'"),
        ({"dump_sys": [("G", "x")]}, "--dump-sys expects a mapping, got [('G', 'x')]"),
        ({"systems": [SystemSpec("G", bundled_asset("q1.imp"))]}, {}),
        *SHAPE_ERRORS.values(),
    ],
    ids=[
        "shift-string",
        "width-string",
        "cap-string",
        "width-float",
        "cap-bool",
        "cap-word",
        "widths-list",
        "transforms-none",
        "transforms-string",
        "dump-sys-list",
        "program-pathlike",
        *SHAPE_ERRORS,
    ],
)
def test_api_config_is_read_like_the_command_line(given, meant):
    """Caps, widths and shift distances are integers or decimal strings, as on the command line,
    a path is a ``str`` or an ``os.PathLike``, and a config whose systems, property, widths,
    transforms, paths or dumps have the wrong shape is a one-line usage error."""
    if isinstance(meant, str):
        with pytest.raises(ConfigError, match=re.escape(meant)) as refused:
            run(api_config(**given))
        assert "\n" not in str(refused.value)
    else:
        assert run(api_config(**given)).sizes == run(api_config(**meant)).sizes


@pytest.mark.parametrize("given, meant", SHAPE_ERRORS.values(), ids=list(SHAPE_ERRORS))
def test_a_config_of_the_wrong_shape_is_refused_before_any_program_is_read(monkeypatch, given, meant):
    monkeypatch.setattr(cli, "_load_system", lambda *args: pytest.fail("a program was read"))
    with pytest.raises(ConfigError, match=re.escape(meant)):
        run(api_config(**given))


# one value of each wrong kind
WRONG_KINDS = {
    "none": None,
    "bool": True,
    "float": 2.5,
    "string": "abc",
    "bytes": b"abc",
    "list": ["abc"],
    "dict": {"abc": 1},
    "below-one": 0,
}
# (field or key, kind) where the value of that kind is valid, so it is no case
VALID_IN_CONFIG = {
    ("formula_file", "none"),
    ("widths", "dict"),
    ("dump_sys", "dict"),
    ("system_id", "string"),
    ("program_path", "string"),
    *((path, kind) for path in ("dump_dpa", "dump_game", "report_path") for kind in ("none", "string")),
}
VALID_IN_MANIFEST = {("name", "string"), ("program", "string"), ("widths", "dict"), ("expect", "none")}


def wrong_api_configs():
    """(id, config) per field of ``CheckConfig`` and of ``SystemSpec``, per width value and per kind."""
    program = str(bundled_asset("q1.imp"))
    for kind, value in WRONG_KINDS.items():
        cases = {name: {name: value} for name in CheckConfig.__match_args__}
        for i, name in enumerate(SystemSpec.__match_args__):
            spec_fields = ["G", program, ()]
            spec_fields[i] = value
            cases[name] = {"systems": [SystemSpec(*spec_fields)]}
        cases["width"] = {"widths": {"h": value}}
        for name, fields in cases.items():
            if (name, kind) not in VALID_IN_CONFIG:
                yield f"{name}-{kind}", api_config(**fields)


WRONG_API_CONFIGS = dict(wrong_api_configs())


def refuse_any_file_but_the_manifest(monkeypatch):
    read_text = cli._read_text
    monkeypatch.setattr(cli, "_load_system", lambda *args: pytest.fail("a program was read"))
    monkeypatch.setattr(
        cli, "_read_text", lambda path, what: read_text(path, what) if what == "manifest" else pytest.fail(what)
    )


@pytest.mark.parametrize("case", sorted(WRONG_API_CONFIGS))
def test_a_value_of_the_wrong_kind_is_a_one_line_config_error_before_any_file_is_read(monkeypatch, case):
    refuse_any_file_but_the_manifest(monkeypatch)
    with pytest.raises(ConfigError) as refused:
        run(WRONG_API_CONFIGS[case])
    assert "\n" not in str(refused.value)


def wrong_manifests():
    """(id, manifest) per entry key, width value and transform, per kind, each after a good entry."""
    good = {"name": "good", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    entry = {"name": "case", "program": str(bundled_asset("q1.imp")), "prop": "od"}
    for kind, value in WRONG_KINDS.items():
        if kind == "bytes":  # JSON holds no bytes
            continue
        yield f"entries-{kind}", {"entries": value}
        cases = {key: {key: value} for key in ("name", "program", "prop", "widths", "transforms", "expect")}
        cases.update(width={"widths": {"h": value}}, transform={"transforms": [value]})
        for key, fields in cases.items():
            if (key, kind) not in VALID_IN_MANIFEST:
                yield f"{key}-{kind}", {"entries": [good, dict(entry, **fields)]}


WRONG_MANIFESTS = dict(wrong_manifests())


@pytest.mark.parametrize("case", sorted(WRONG_MANIFESTS))
def test_a_manifest_value_of_the_wrong_kind_is_refused_before_any_row_runs(tmp_path, monkeypatch, capsys, case):
    refuse_any_file_but_the_manifest(monkeypatch)
    m = tmp_path / "m.json"
    m.write_text(json.dumps(WRONG_MANIFESTS[case]))
    usage_error(capsys, ["suite", "--manifest", str(m)])


@pytest.mark.parametrize("system_id, prop", [(["G"], "od"), (7, "ni-async"), (None, "od"), ("", "ni")])
def test_a_system_id_that_is_no_string_is_a_config_error(system_id, prop):
    config = CheckConfig(systems=[SystemSpec(system_id, str(bundled_asset("p1.imp")))], prop=prop)
    with pytest.raises(ConfigError) as refused:
        run(config)
    assert str(refused.value) == f"--system expects a non-empty id before '=', got {system_id!r}"


def test_a_width_below_one_is_refused_at_the_flag(tmp_path, capsys):
    prog = str(bundled_asset("q1.imp"))
    err = usage_error(capsys, ["check", "--system", f"G={prog}", "--prop", "od", "--width", "h=0"])
    assert err == "error: --width h must be at least 1, got 0\n"
    with pytest.raises(ConfigError, match="^--width h must be at least 1, got -3$"):
        run(api_config(widths={"h": -3}))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [{"name": "case", "program": prog, "prop": "od", "widths": {"h": 0}}]}))
    err = usage_error(capsys, ["suite", "--manifest", str(m)])
    assert err == "error: case: --width h must be at least 1, got 0\n"


def test_a_width_named_by_no_declared_variable_is_a_program_error():
    """Width names are checked against the program: a name that is no string is one more undeclared name."""
    with pytest.raises(imp.ProgramError, match=re.escape("undeclared variable(s): [5, 'zz']")):
        run(api_config(widths={5: 2, "zz": 2}))


def test_a_cap_that_is_no_integer_is_one_error_line(capsys):
    argv = ["check", "--system", f"G={bundled_asset('p1.imp')}", "--prop", "od", "--cap-states", "abc"]
    assert usage_error(capsys, argv) == "error: --cap-states expects an integer, got 'abc'\n"


def test_unbound_dump_sys_is_rejected_before_any_dump(tmp_path, capsys):
    prog = str(bundled_asset("p1.imp"))
    argv = ["check", "--system", f"G={prog}", "--prop", "od", "--dump-sys", f"X={tmp_path / 'x.dot'}"]
    argv += ["--dump-game", str(tmp_path / "g.dot"), "--dump-dpa", str(tmp_path / "d.dot")]
    assert "unbound system 'X'" in usage_error(capsys, argv)
    assert list(tmp_path.iterdir()) == []


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dumps_escape_quotes_and_backslashes_in_names(tmp_path):
    sid = 'a"b\\c'
    dumps = {kind: tmp_path / f"{kind}.dot" for kind in ("sys", "game", "dpa")}
    argv = ["check", "--system", f"{sid}={bundled_asset('p1.imp')}", "--prop", "od"]
    argv += ["--dump-sys", f"{sid}={dumps['sys']}"]
    argv += ["--dump-game", str(dumps["game"]), "--dump-dpa", str(dumps["dpa"])]
    assert cli.main(argv) == EXIT_SATISFIED
    for kind, path in dumps.items():
        lines = path.read_text().splitlines()
        # outside its quoted strings, no line holds a quote
        for line in lines:
            assert '"' not in DOT_STRING.sub("", line), (kind, line)
        assert len(lines) > 2, kind
    assert dumps["sys"].read_text().startswith('digraph "a\\"b\\\\c" {\n')


def python_m_hyperatl(*args):
    """``python -m hyperatl args`` in a fresh interpreter, with the package under test."""
    src = str(Path(hyperatl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "hyperatl", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_m_hyperatl_runs_the_cli():
    proc = python_m_hyperatl("check", "--system", f"G={bundled_asset('p1.imp')}", "--prop", "od")
    assert proc.returncode == EXIT_SATISFIED, proc.stderr
    assert proc.stdout.startswith("verdict satisfied\n")


def test_check_prints_its_report_record(tmp_path):
    """``check`` prints the very text it writes to ``--report``."""
    report = tmp_path / "report.txt"
    prog = bundled_asset("p1.imp")
    proc = python_m_hyperatl("check", "--system", f"G={prog}", "--prop", "od", "--report", str(report))
    assert proc.returncode == EXIT_SATISFIED, proc.stderr
    assert proc.stdout.encode() == report.read_bytes()


@pytest.mark.parametrize(
    "k, cap, code, message",
    [
        (900, 910, EXIT_RESOURCE, "resource limit: state cap of 910 exceeded"),
        (999, 1005, EXIT_USAGE, "error: formula is nested too deeply (Python's recursion limit is 1000)"),
        (1001, 1005, EXIT_USAGE, "error: sgni:k lookahead 1001 is above Python's recursion limit of 1000"),
    ],
)
def test_a_lookahead_the_recursion_limit_cannot_reach_is_a_usage_error(k, cap, code, message):
    """``p1`` has 17 states, so each twin of ``17 + k`` states exceeds the cap;
    but only a lookahead whose ``k`` nested ``X`` the recursion limit (1000 in
    a fresh interpreter) can walk gets as far as building the program."""
    prog = str(bundled_asset("p1.imp"))
    proc = python_m_hyperatl("check", "--system", f"G={prog}", "--prop", f"sgni:{k}", "--cap-states", str(cap))
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == message


ENTRY = {"name": "case", "program": "p1.imp", "prop": "od"}
MALFORMED_SUITES = {
    "manifest list": ([1], "manifest must be a JSON object"),
    "entry number": ({"entries": [3]}, "manifest entry 0 must be a JSON object"),
    "widths list": ({"entries": [dict(ENTRY, widths=["h", 2])]}, "case: --width expects a mapping, got ['h', 2]"),
    "entries object": ({"entries": {"case": ENTRY}}, "manifest entries must be a JSON array"),
    "transforms string": ({"entries": [dict(ENTRY, transforms="stutter")]}, "case: transforms must be"),
    "prop number": ({"entries": [dict(ENTRY, prop=5)]}, "case: --prop expects a string, got 5"),
    "prop missing": ({"entries": [{"name": "case", "program": "p1.imp"}]}, "manifest entry 0 needs a string 'prop'"),
    "expect number": ({"entries": [dict(ENTRY, expect=5)]}, "case: expect must be 'satisfied' or 'violated', got 5"),
    "expect misspelt": ({"entries": [dict(ENTRY, expect="satisfed")]}, "case: expect must be 'satisfied' or 'violated', got \"satisfed\""),
    "name repeated": ({"entries": [ENTRY, dict(ENTRY, prop="ni")]}, "manifest entry 1 repeats the name 'case' of entry 0"),
    "entries misspelt": ({"entrys": [ENTRY]}, 'manifest has an unknown key "entrys"'),
    "entries missing": ({}, "manifest entries must be a JSON array, got null"),
    "transforms misspelt": ({"entries": [dict(ENTRY, transform=["stutter"])]}, 'manifest entry 0 has an unknown key "transform"'),
    # refused with the whole manifest, before its first entry runs
    "shift zero": ({"entries": [ENTRY, dict(ENTRY, name="shifted", transforms=["shift=0"])]}, "shifted: shift needs a distance of at least 1, got 0"),
    "prop sgni:x": ({"entries": [ENTRY, dict(ENTRY, name="lookahead", prop="sgni:x")]}, "lookahead: sgni:k expects an integer, got 'x'"),
    "prop odd": ({"entries": [ENTRY, dict(ENTRY, name="odd", prop="odd")]}, "odd: unknown builtin property 'odd'"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_SUITES))
def test_malformed_suite_input_is_a_usage_error(tmp_path, capsys, shape):
    manifest, message = MALFORMED_SUITES[shape]
    m = tmp_path / "m.json"
    m.write_text(json.dumps(manifest))
    assert message in usage_error(capsys, ["suite", "--manifest", str(m)])


DEEP_FORMULAS = {
    "parentheses": "[ forall p1 . forall p2 . ] " + "(" * 3000 + "o[0]{p1}" + ")" * 3000,
    "next": "[ forall p1 . forall p2 . ] X[5000] o[0]{p1}",
}
DEEP_PROGRAMS = {
    "negations": "var o:1;\no := " + "!" * 3000 + "o;\n",
    "statements": "var o:1;\n" + "if (o) {\n" * 1000 + "o := !o;\n" + "} else { o := o; }\n" * 1000,
}
BOUNDED_DEPTH = {  # (program or None for p1, formula or None for od)
    "formula parentheses": (None, "[ forall p1 . forall p2 . ] " + "(" * 300 + "G (o[0]{p1} <-> o[0]{p2})" + ")" * 300),
    "program parentheses": ("var o:1;\no := " + "(" * 300 + "!o" + ")" * 300 + ";\n", None),
    "statements": ("var o:1;\n" + "o := !o;\n" * 10_000, None),
}


@pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
def test_deeply_nested_formula_is_a_usage_error(tmp_path, capsys, shape):
    f = tmp_path / "f.hq"
    f.write_text(DEEP_FORMULAS[shape])
    argv = ["check", "--system", f"G={bundled_asset('p1.imp')}", "--formula", str(f)]
    assert "formula is nested too deeply" in usage_error(capsys, argv)


@pytest.mark.parametrize("shape", sorted(BOUNDED_DEPTH))
def test_deep_input_within_the_nesting_limit_is_checked(tmp_path, capsys, shape):
    program, formula = BOUNDED_DEPTH[shape]
    prog = tmp_path / "p.imp"
    prog.write_text(program or bundled_asset("p1.imp").read_text())
    argv = ["check", "--system", f"G={prog}", "--prop", "od"]
    if formula is not None:
        f = tmp_path / "f.hq"
        f.write_text(formula)
        argv[-2:] = ["--formula", str(f)]
    assert cli.main(argv) == EXIT_SATISFIED, capsys.readouterr().err


@pytest.mark.parametrize("shape", sorted(DEEP_PROGRAMS))
def test_deeply_nested_program_is_a_usage_error(tmp_path, capsys, shape):
    prog = tmp_path / "deep.imp"
    prog.write_text(DEEP_PROGRAMS[shape])
    argv = ["check", "--system", f"G={prog}", "--prop", "od"]
    assert "deep.imp' is nested too deeply" in usage_error(capsys, argv)


def test_suite_records_a_deeply_nested_program_as_an_error_row(tmp_path):
    prog = tmp_path / "deep.imp"
    prog.write_text(DEEP_PROGRAMS["negations"])
    good = {"name": "good", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [{"name": "deep", "program": str(prog), "prop": "od"}, good]}))
    rows, ok = run_suite(str(m))
    assert not ok
    assert [(r.name, r.verdict) for r in rows] == [("deep", "error"), ("good", "satisfied")]
    assert "nested too deeply" in rows[0].message


NON_DECIMAL_PROGRAM = "var o:1;\nvar h:1;\nh := read_H;\no := h[²];\n"
NON_DECIMAL = {  # (program or None for p1, --formula text or None, --prop or None)
    "program": (NON_DECIMAL_PROGRAM, None, "od"),
    "formula": (None, "[ forall p1 . forall p2 . ] X[²] o[0]{p1}", None),
    "ahltl body": (None, "G (o[²]{p1} <-> o[0]{p2})", "ahltl:2"),
}


@pytest.mark.parametrize("where", sorted(NON_DECIMAL))
def test_non_decimal_digit_is_a_positioned_usage_error(tmp_path, capsys, where):
    program, formula, prop = NON_DECIMAL[where]
    prog = tmp_path / "p.imp"
    prog.write_text(program or bundled_asset("p1.imp").read_text())
    argv = ["check", "--system", f"G={prog}"]
    if formula is not None:
        f = tmp_path / "f.hq"
        f.write_text(formula)
        argv += ["--formula", str(f)]
    if prop is not None:
        argv += ["--prop", prop]
    assert re.fullmatch(r"error: \d+:\d+: unexpected character '²'\n", usage_error(capsys, argv))


def test_suite_records_a_non_decimal_digit_as_an_error_row(tmp_path):
    prog = tmp_path / "bad.imp"
    prog.write_text(NON_DECIMAL_PROGRAM)
    good = {"name": "good", "program": str(bundled_asset("p1.imp")), "prop": "od"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"entries": [{"name": "bad", "program": str(prog), "prop": "od"}, good]}))
    rows, ok = run_suite(str(m))
    assert not ok
    assert [(r.name, r.verdict, r.message) for r in rows] == [
        ("bad", "error", "4:8: unexpected character '²'"),
        ("good", "satisfied", ""),
    ]


def test_builtin_parameters_are_checked_before_a_formula_is_built(tmp_path, capsys):
    prog = str(bundled_asset("p1.imp"))
    # a formula fragment in place of the alignment proposition is one unknown proposition
    argv = ["check", "--system", f"G={prog}", "--prop", "ni-async:o[0]{p1} | true | o[0]"]
    assert "proposition 'o[0]{p1} | true | o[0]' is not labelled" in usage_error(capsys, argv)
    # a lookahead too deep to check is refused without a position in formula text
    limit = sys.getrecursionlimit()
    argv = ["check", "--system", f"G={prog}", "--prop", f"sgni:{limit + 500}"]
    err = usage_error(capsys, argv)
    assert f"lookahead {limit + 500} is above Python's recursion limit" in err
    assert not re.search(r"\d+:\d+:", err)
    body = tmp_path / "f.hatl"
    body.write_text("G o[0]{p1}")
    for n in ("0", "-2"):
        argv = ["check", "--system", f"G={prog}", "--prop", f"ahltl:{n}", "--formula", str(body)]
        assert f"ahltl:n needs at least one copy, got {n}" in usage_error(capsys, argv)


def test_builtin_parameters_are_checked_before_a_program_is_read(tmp_path, capsys):
    argv = ["check", "--system", f"G={tmp_path / 'missing.imp'}", "--prop", "sgni:x"]
    assert "sgni:k expects an integer, got 'x'" in usage_error(capsys, argv)


@pytest.mark.parametrize("flag", ["--dump-dpa", "--dump-game", "--dump-sys", "--report"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, flag, where):
    path = tmp_path / "missing" / "out.dot" if where == "missing directory" else tmp_path
    argv = ["check", "--system", f"G={bundled_asset('p1.imp')}", "--prop", "od"]
    argv += [flag, f"G={path}" if flag == "--dump-sys" else str(path)]
    assert f"cannot write {flag} {str(path)!r}" in usage_error(capsys, argv)


LONG = "7" * 5000  # more digits than ``int`` reads by default
LONG_NUMBERS = {  # (program or None for p1, --formula text or None for od)
    "program width": (f"var o:{LONG};\no := o;\n", None),
    "program index": (f"var o:1;\no := o[{LONG}];\n", None),
    "formula": (None, f"[ forall p1 . forall p2 . ] X[{LONG}] o[0]{{p1}}"),
}


@pytest.mark.parametrize("where", sorted(LONG_NUMBERS))
def test_number_too_long_for_int_is_a_positioned_usage_error(tmp_path, capsys, where):
    program, formula = LONG_NUMBERS[where]
    prog = tmp_path / "p.imp"
    prog.write_text(program or bundled_asset("p1.imp").read_text())
    argv = ["check", "--system", f"G={prog}", "--prop", "od"]
    if formula is not None:
        f = tmp_path / "f.hq"
        f.write_text(formula)
        argv[-2:] = ["--formula", str(f)]
    assert re.fullmatch(r"error: \d+:\d+: number too long \(5000 digits\)\n", usage_error(capsys, argv))


def test_manifest_number_too_long_for_int_is_a_usage_error(tmp_path, capsys):
    m = tmp_path / "m.json"
    program = json.dumps(str(bundled_asset("q1.imp")))
    m.write_text(f'{{"entries": [{{"name": "case", "program": {program}, "prop": "od", "widths": {{"h": {LONG}}}}}]}}')
    assert f"cannot parse manifest {str(m)!r}" in usage_error(capsys, ["suite", "--manifest", str(m)])


def test_manifest_with_a_repeated_key_is_a_usage_error(tmp_path, capsys):
    m = tmp_path / "m.json"
    program = json.dumps(str(bundled_asset("q2.imp")))
    m.write_text(f'{{"entries": [{{"name": "a", "program": {program}, "prop": "od", "prop": "ni"}}]}}')
    message = usage_error(capsys, ["suite", "--manifest", str(m)])
    assert f'manifest {str(m)!r} repeats the key "prop"' in message
