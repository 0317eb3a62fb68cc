import pytest

from hyperatl import props
from hyperatl.cli import CheckConfig, SystemSpec, bundled_asset, run
from hyperatl.formula import (
    Coalition,
    Exists,
    Forall,
    collect_atoms,
    format_hyper,
    parse_formula,
    parse_ltl,
    to_nnf,
    validate_fragment,
)
from hyperatl.imp import build_cgs, parse_program
from hyperatl.props import TemplateError
from hyperatl.structures import shift_transform, stutter_transform


def load(name):
    widths, prog = parse_program(bundled_asset(name).read_text())
    return build_cgs(prog, widths)


def test_od_template_exact_shape():
    f = props.expand_od(["o[0]"])
    assert format_hyper(f) == "[ forall p1 . forall p2 . ] G ((o[0]{p1} <-> o[0]{p2}))"


def test_od_requires_outputs():
    with pytest.raises(TemplateError):
        props.expand_od([])


def test_od_multibit_conjunction():
    f = props.expand_od(["o[0]", "o[1]"])
    assert collect_atoms(f.body) == (
        ("o[0]", "p1"),
        ("o[0]", "p2"),
        ("o[1]", "p1"),
        ("o[1]", "p2"),
    )


def test_ni_template_and_empty_low_degenerates():
    f = props.expand_ni(["o[0]"], ["l[0]"])
    assert "l[0]{p1}" in format_hyper(f)
    g = props.expand_ni(["o[0]"], [])
    assert "(true ->" in format_hyper(g)


def test_simsec_template_has_next_on_second_copy():
    f = props.expand_simsec(["o[0]"], ["l[0]"], "G", "G_shift1")
    text = format_hyper(f)
    assert "<<xi_N>> p2 @ G_shift1" in text
    assert "X (o[0]{p2})" in text
    assert f.block[0].spec == Forall()
    assert f.block[1].spec == Coalition(("xi_N",))


def test_sgni_template_x_towers_and_degenerate_cases():
    f = props.expand_sgni(["o[0]"], ["l[0]"], ["h[0]"], 3, "G", "G_shift3")
    text = format_hyper(f)
    assert text.count("X (X (X (") >= 3  # one tower per matched proposition
    assert f.block[2].spec == Exists()
    g = props.expand_sgni(["o[0]"], [], [], 1, "G", "G_shift1")
    assert "(true &" in format_hyper(g)
    with pytest.raises(TemplateError):
        props.expand_sgni(["o[0]"], [], [], 0, "G", "G_shift0")


def test_od_async_template_fairness_twice():
    f = props.expand_od_async(["o[0]"], "G_stut")
    text = format_hyper(f)
    assert text.count("stut{p1}") == 1 and text.count("stut{p2}") == 1
    assert all(q.spec == Coalition(("sched",)) for q in f.block)


def test_ni_async_alignment_required_unless_opted_out():
    f = props.expand_ni_async(["o[0]"], ["l[0]"], "r[0]", "G_stut")
    assert "G ((r[0]{p1} <-> r[0]{p2}))" in format_hyper(f)


def test_ahltl_builder_matches_od_async_shape():
    body = parse_ltl("G (o[0]{p1} <-> o[0]{p2})")
    f = props.expand_ahltl(2, body, "G_stut")
    g = props.expand_od_async(["o[0]"], "G_stut")
    # same quantifiers and the same set of conjuncts, reordered
    assert f.block == g.block
    assert set(collect_atoms(f.body)) == set(collect_atoms(g.body))
    single = props.expand_ahltl(1, parse_ltl("G o[0]{p1}"), "G_stut")
    assert len(single.block) == 1


def test_every_template_validates_against_its_bindings():
    base = load("p2.imp")
    systems = {
        "G": base,
        "G_stut": stutter_transform(base),
        "G_shift1": shift_transform(base, 1),
        "G_shift3": shift_transform(base, 3),
    }
    cases = [
        props.expand_od(["o[0]"]),
        props.expand_ni(["o[0]"], ["l[0]"]),
        props.expand_simsec(["o[0]"], ["l[0]"], "G", "G_shift1"),
        props.expand_sgni(["o[0]"], ["l[0]"], ["h[0]"], 3, "G", "G_shift3"),
        props.expand_od_async(["o[0]"], "G_stut"),
        props.expand_ahltl(2, parse_ltl("G (o[0]{p1} <-> o[0]{p2})"), "G_stut"),
    ]
    for f in cases:
        info = validate_fragment(f, systems, default_system="G")
        assert info.quantifiers
        to_nnf(f.body)
    # the alignment proposition only exists where the program declares it
    q2 = {"Q_stut": stutter_transform(load("q2.imp"))}
    f = props.expand_ni_async(["o[0]"], ["l[0]"], "r[0]", "Q_stut")
    info = validate_fragment(f, q2, default_system="Q_stut")
    assert ("r[0]", "p1") in info.atom_copy


def test_od_symmetric_under_variable_swap(tmp_path):
    # swapping the two universal copies cannot change any verdict
    swapped = tmp_path / "od-swapped.hatl"
    swapped.write_text("[ forall p2 . forall p1 . ] G ((o[0]{p1} <-> o[0]{p2}))")
    expected = {"p1.imp": "satisfied", "p2.imp": "violated",
                "p3.imp": "violated", "p4.imp": "violated"}
    for name, verdict in expected.items():
        prog = str(bundled_asset(name))
        direct = run(CheckConfig(systems=[SystemSpec("G", prog)], prop="od"))
        other = run(
            CheckConfig(systems=[SystemSpec("G", prog)], formula_file=str(swapped))
        )
        assert direct.verdict == other.verdict == verdict
