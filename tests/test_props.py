import oracles

from hyperatl import props
from hyperatl.cli import CheckConfig, SystemSpec, bundled_asset, run
from hyperatl.formula import (
    Coalition,
    Exists,
    Forall,
    collect_atoms,
    format_hyper,
    parse_ltl,
    to_nnf,
    validate_fragment,
)
from hyperatl.imp import build_cgs, parse_program
from hyperatl.structures import shift_transform, stutter_transform


def load(name):
    widths, prog = parse_program(bundled_asset(name).read_text())
    return build_cgs(prog, widths)


O, L, H = ["o[0]"], ["l[0]"], ["h[0]"]
AHLTL_BODIES = [  # each goes with every ahltl:n whose copies bind its paths
    "G o[0]{p1}",
    "F (h[0]{p1} U ! X[2] o[0]{p1}) -> false R (l[0]{p1} | X o[0]{p1})",
    "G (o[0]{p1} <-> o[0]{p2})",
    "(G (l[0]{p1} <-> l[0]{p2})) -> G ((o[0]{p1} <-> o[0]{p2}) & (o[0]{p2} <-> o[0]{p3}))",
    "F (h[0]{p1} U ! X[2] o[0]{p4}) | true R (l[0]{p2} & X o[0]{p3})",
]


def builtin_pairs():
    """(name, tree, formula parsed from the text builder) for every builtin shape."""
    yield "od", props.expand_od(), oracles.text_od(O)
    yield "ni", props.expand_ni(), oracles.text_ni(O, L)
    yield "simsec", props.expand_simsec("G", "G_s1"), oracles.text_simsec(O, L, "G", "G_s1")
    for k in range(1, 6):
        tree = props.expand_sgni(k, "G", f"G_s{k}")
        yield f"sgni:{k}", tree, oracles.text_sgni(O, L, H, k, "G", f"G_s{k}")
    yield "od-async", props.expand_od_async("G_t"), oracles.text_od_async(O, "G_t")
    for r in ("r[0]", "l[0]"):
        tree = props.expand_ni_async(r, "G_t")
        yield f"ni-async:{r}", tree, oracles.text_ni_async(O, L, r, "G_t")
    for n in range(1, 5):
        for i, text in enumerate(AHLTL_BODIES):
            body = parse_ltl(text)
            if max(int(var[1:]) for _, var in collect_atoms(body)) <= n:
                tree = props.expand_ahltl(n, body, "G_t")
                yield f"ahltl:{n} body {i}", tree, oracles.text_ahltl(n, body, "G_t")


def test_every_tree_equals_its_parsed_text():
    pairs = list(builtin_pairs())
    assert len(pairs) == 11 + 2 + 3 + 4 + 5  # ahltl:1..4 over 2, 3, 4 and 5 bodies
    for name, tree, parsed in pairs:
        assert tree == parsed, name
        assert format_hyper(tree) == format_hyper(parsed), name


def test_od_template_exact_shape():
    f = props.expand_od()
    assert format_hyper(f) == "[ forall p1 . forall p2 . ] G ((o[0]{p1} <-> o[0]{p2}))"


def test_ni_template_premise_matches_low_inputs():
    f = props.expand_ni()
    assert "(G ((l[0]{p1} <-> l[0]{p2})) ->" in format_hyper(f)


def test_simsec_template_has_next_on_second_copy():
    f = props.expand_simsec("G", "G_shift1")
    text = format_hyper(f)
    assert "<<xi_N>> p2 @ G_shift1" in text
    assert "X (o[0]{p2})" in text
    assert f.block[0].spec == Forall()
    assert f.block[1].spec == Coalition(("xi_N",))


def test_sgni_template_x_towers_and_degenerate_cases():
    f = props.expand_sgni(3, "G", "G_shift3")
    text = format_hyper(f)
    assert text.count("X (X (X (") == 3  # one tower per matched proposition
    assert f.block[2].spec == Exists()
    g = format_hyper(props.expand_sgni(1, "G", "G_shift1"))  # a tower of one
    assert g.count("X (") == 3 and "X (X (" not in g


def test_od_async_template_fairness_twice():
    f = props.expand_od_async("G_stut")
    text = format_hyper(f)
    assert text.count("stut{p1}") == 1 and text.count("stut{p2}") == 1
    assert all(q.spec == Coalition(("sched",)) for q in f.block)


def test_ni_async_alignment_required_unless_opted_out():
    f = props.expand_ni_async("r[0]", "G_stut")
    assert "G ((r[0]{p1} <-> r[0]{p2}))" in format_hyper(f)


def test_ahltl_builder_matches_od_async_shape():
    body = parse_ltl("G (o[0]{p1} <-> o[0]{p2})")
    f = props.expand_ahltl(2, body, "G_stut")
    g = props.expand_od_async("G_stut")
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
        props.expand_od(),
        props.expand_ni(),
        props.expand_simsec("G", "G_shift1"),
        props.expand_sgni(3, "G", "G_shift3"),
        props.expand_od_async("G_stut"),
        props.expand_ahltl(2, parse_ltl("G (o[0]{p1} <-> o[0]{p2})"), "G_stut"),
    ]
    for f in cases:
        # od and ni annotate no quantifier, so they bind the single system
        bound = systems if f.block[0].system else {"G": base}
        info = validate_fragment(f, bound)
        assert info.quantifiers
        to_nnf(f.body)
    # the alignment proposition only exists where the program declares it
    q2 = {"Q_stut": stutter_transform(load("q2.imp"))}
    f = props.expand_ni_async("r[0]", "Q_stut")
    info = validate_fragment(f, q2)
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
