"""Metamorphic relations: changes to a check whose effect on the verdict is known.

None of them needs an oracle, so they hold at any size:

- reordering the quantifier block keeps the verdict and the game's vertex
  and edge counts, since a phase of a round is a (stage, team) pair over
  all copies, not one copy's turn;
- lookahead is monotone: if ``sgni:k`` is satisfied, so is ``sgni:k+1``;
- coalitions are monotone: adding an agent to a quantifier's coalition
  never turns satisfied into violated, since player 0 can fix the agent's
  moves the way the adversary could have played them (Alur, Henzinger &
  Kupferman, JACM 2002).

They run on the bundled programs and on seeded ``conftest.random_program``
programs over ``o``, ``l`` and ``h``.
"""

import itertools
import random

import pytest

from conftest import random_program
from hyperatl.cli import CheckConfig, SystemSpec, bundled_asset, run
from hyperatl.imp import build_cgs, parse_program

ORDER_BODY = "(G (l[0]{a} <-> l[0]{b}) -> G (o[0]{a} <-> o[0]{b})) & G F (o[0]{c} <-> o[0]{a})"
AGENTS = ("xi_N", "xi_H", "xi_L")  # every program's agents
COALITIONS = [frozenset(c) for size in range(4) for c in itertools.combinations(AGENTS, size)]
ONE_COPY_BODIES = (
    "G F o[0]{p1}",
    "F G o[0]{p1}",
    "G (h[0]{p1} -> X o[0]{p1})",
    "(G F h[0]{p1}) -> G F o[0]{p1}",
)
TWO_COPY_BODIES = (
    "G (l[0]{p1} <-> l[0]{p2}) -> G (o[0]{p1} <-> o[0]{p2})",
    "G (o[0]{p1} <-> o[0]{p2})",
    "G (h[0]{p1} <-> h[0]{p2}) -> F (o[0]{p1} <-> !o[0]{p2})",
)


def random_programs(seed: int, count: int, max_states: int) -> list[str]:
    """``count`` seeded random programs over ``o``, ``l`` and ``h`` of at most ``max_states`` states."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        text = random_program(rng, depth=rng.randint(1, 2), names="olh", max_width=2)
        declared, program = parse_program(text)
        if build_cgs(program, declared).n_states <= max_states:
            texts.append(text)
    return texts


def check(tmp_path, program: str, formula: str):
    """The report of ``formula`` on ``program`` (a path), bound as system ``G``."""
    f = tmp_path / "formula.hatl"
    f.write_text(formula)
    return run(CheckConfig(systems=[SystemSpec("G", program)], formula_file=str(f)))


def write_programs(tmp_path, texts: list[str]) -> list[str]:
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"random{i}.imp"
        path.write_text(text)
        paths.append(str(path))
    return paths


def order_outcomes(tmp_path, program: str) -> set:
    """(verdict, vertices, edges) over the six orders of one block."""
    quantifiers = ("forall a .", "exists b .", "<<xi_N>> c .")
    outcomes = set()
    for order in itertools.permutations(quantifiers):
        report = check(tmp_path, program, f"[ {' '.join(order)} ] {ORDER_BODY}")
        outcomes.add((report.verdict, report.sizes["game.vertices"], report.sizes["game.edges"]))
    return outcomes


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "q1"])
def test_reordering_the_block_keeps_the_verdict_and_the_game_size(tmp_path, name):
    outcomes = order_outcomes(tmp_path, str(bundled_asset(f"{name}.imp")))
    assert len(outcomes) == 1, outcomes


def test_reordering_the_block_of_random_programs_keeps_the_verdict_and_the_game_size(tmp_path):
    for path in write_programs(tmp_path, random_programs(40, 12, 30)):
        outcomes = order_outcomes(tmp_path, path)
        assert len(outcomes) == 1, (open(path).read(), outcomes)


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "q1"])
def test_a_longer_lookahead_keeps_a_satisfied_check_satisfied(name):
    system = SystemSpec("G", str(bundled_asset(f"{name}.imp")))
    verdicts = [run(CheckConfig(systems=[system], prop=f"sgni:{k}")).verdict for k in range(1, 7)]
    for k in range(1, 6):
        assert verdicts[k - 1] != "satisfied" or verdicts[k] == "satisfied", (k, verdicts)


def quantifier(coalition: frozenset, var: str) -> str:
    if not coalition:
        return f"forall {var} ."
    if len(coalition) == len(AGENTS):
        return f"exists {var} ."
    return f"<<{','.join(a for a in AGENTS if a in coalition)}>> {var} ."


def coalition_flips(tmp_path, path: str, body: str, n_copies: int) -> int:
    """How often adding one agent to one copy's coalition turns violated into satisfied.

    Fails if it ever turns satisfied into violated.  Every copy's coalition
    ranges over all sets of agents.
    """
    variables = [f"p{i + 1}" for i in range(n_copies)]
    won = {}
    for block in itertools.product(COALITIONS, repeat=n_copies):
        text = " ".join(map(quantifier, block, variables))
        won[block] = check(tmp_path, path, f"[ {text} ] {body}").verdict == "satisfied"
    flips = 0
    for block, i, agent in itertools.product(won, range(n_copies), AGENTS):
        if agent not in block[i]:
            larger = won[block[:i] + (block[i] | {agent},) + block[i + 1 :]]
            assert larger or not won[block], (open(path).read(), body, block, i, agent)
            flips += larger and not won[block]
    return flips


def test_a_larger_coalition_keeps_a_satisfied_check_satisfied(tmp_path):
    flips = 0
    for path in write_programs(tmp_path, random_programs(41, 20, 40)):
        flips += sum(coalition_flips(tmp_path, path, body, 1) for body in ONE_COPY_BODIES)
    # the relation is tested where it can fail: some checks turn satisfied
    assert flips >= 40, flips


def test_a_larger_coalition_of_either_copy_keeps_a_satisfied_check_satisfied(tmp_path):
    flips = 0
    for path in write_programs(tmp_path, random_programs(42, 8, 40)):
        flips += sum(coalition_flips(tmp_path, path, body, 2) for body in TWO_COPY_BODIES)
    assert flips >= 40, flips
