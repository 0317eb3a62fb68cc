"""The benchmark's workloads: set-up from a seed, timed calls, output checks.

A workload is a list of checks in a seeded order.  Each check has one timed
call into the program and an untimed check of its output.  Why each workload
exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from hyperatl import cli, solver

# q1w3-ni-async alone costs about 38 s and 682 MB, more than the rest of
# table5b together; its stuttered system is the one q1w3-od-async already
# builds an arena from.
TABLE5B_EXCLUDED = frozenset({"q1w3-ni-async"})

# The random games are drawn once from this fixed seed; the run's seed
# relabels and reorders them (see README.md for why).
CORPUS_SEED = 2107
N_GAMES = 200


@dataclass
class Check:
    id: str
    call: Callable[[], object]
    # Returns an error message, or None if the output is correct.
    verify: Callable[[object], "str | None"]
    # Sizes to diff between commits; not a gate.
    fingerprint: Callable[[object], dict]


def _suite_checks(manifest: str, seed: int, exclude: frozenset = frozenset()) -> list[Check]:
    path = cli.bundled_asset(f"{manifest}.json")
    entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
    checks = []
    for entry in entries:
        if entry["name"] in exclude:
            continue
        transforms = tuple(
            ("shift", int(t.split("=", 1)[1])) if t.startswith("shift=") else (t,)
            for t in entry.get("transforms", [])
        )
        config = cli.CheckConfig(
            systems=[cli.SystemSpec("G", str(path.parent / entry["program"]), transforms)],
            prop=entry["prop"],
            widths={k: int(v) for k, v in entry.get("widths", {}).items()},
        )
        checks.append(_suite_check(entry["name"], config, entry["expect"]))
    random.Random(seed).shuffle(checks)
    return checks


def _suite_check(name: str, config, expect: str) -> Check:
    def verify(report) -> "str | None":
        if report.verdict != expect:
            return f"verdict {report.verdict}, expected {expect}"
        return None

    return Check(
        id=name,
        call=lambda: cli.run(config),
        verify=verify,
        fingerprint=lambda report: {"verdict": report.verdict, **report.sizes},
    )


def _random_game(rng: random.Random) -> solver.ParityGame:
    n = rng.randint(1000, 2000)
    n_priorities = rng.randint(2, 200)
    succ = [rng.sample(range(n), rng.randint(1, 2)) for _ in range(n)]
    owner = [rng.randint(0, 1) for _ in range(n)]
    priority = [rng.randrange(n_priorities) for _ in range(n)]
    return solver.ParityGame(succ, owner, priority, rng.randrange(n))


def _relabel(game: solver.ParityGame, rng: random.Random) -> solver.ParityGame:
    """An isomorphic copy: vertices renumbered, successor lists reordered."""
    n = game.n_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    succ: list = [None] * n
    owner = [0] * n
    priority = [0] * n
    for v in range(n):
        row = [perm[t] for t in game.succ[v]]
        rng.shuffle(row)
        succ[perm[v]] = row
        owner[perm[v]] = game.owner[v]
        priority[perm[v]] = game.priority[v]
    return solver.ParityGame(succ, owner, priority, perm[game.initial])


def _game_check(name: str, game: solver.ParityGame) -> Check:
    certified: dict = {}

    def verify(solution) -> "str | None":
        regions, s0, s1 = solution
        if len(regions.w0) + len(regions.w1) != game.n_vertices or regions.w0 & regions.w1:
            return "winning regions do not partition the vertices"
        # Zielonka is deterministic, so a later pass must repeat the
        # certified solution exactly; only the first one is certified.
        if certified:
            if certified["solution"] != (regions, s0, s1):
                return "solution differs from the certified one of an earlier pass"
            return None
        if not solver.verify_strategy(game, regions, s0, s1):
            return "verify_strategy rejected the strategies"
        certified["solution"] = (regions, s0, s1)
        return None

    return Check(
        id=name,
        call=lambda: solver.zielonka(game),
        verify=verify,
        fingerprint=lambda solution: {"w0": len(solution[0].w0)},
    )


def _random_game_checks(seed: int) -> list[Check]:
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    checks = [
        _game_check(f"g{i:03d}", _relabel(_random_game(corpus), rng)) for i in range(N_GAMES)
    ]
    rng.shuffle(checks)
    return checks


WORKLOADS: dict[str, Callable[[int], list[Check]]] = {
    "table5a": lambda seed: _suite_checks("table5a", seed),
    "table5b-11": lambda seed: _suite_checks("table5b", seed, TABLE5B_EXCLUDED),
    "solve-random": _random_game_checks,
}
