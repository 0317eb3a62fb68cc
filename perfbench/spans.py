"""Spans around the calls into each layer of the pipeline, from outside it.

The tracer replaces the public functions that ``cli.run`` drives with
wrappers that record a span (name, start, end, parent, check id) and a few
sizes of what the call returned, and puts the originals back on exit.  A
layer's self time is its spans' durations minus the part their child spans
cover, so the self times of one check add up to its root span.
"""

from __future__ import annotations

import os
import statistics
import time

from hyperatl import arena, cli, imp, ltl2dpa, props, solver, structures

# span name -> metric that receives the span's self time
SELF_METRIC = {
    "cli.run": "cli.self_s",
    "imp.parse_program": "imp.parse_s",
    "imp.build_cgs": "imp.build_cgs_s",
    "structures.transform": "structures.transform_s",
    "props.expand": "props.expand_s",
    "formula.validate": "formula.validate_s",
    "ltl2dpa.ltl_to_dpa": "ltl2dpa.tidy_s",
    "ltl2dpa.ltl_to_apa": "ltl2dpa.apa_s",
    "ltl2dpa.apa_to_nba": "ltl2dpa.nba_s",
    "ltl2dpa.nba_to_dpa": "ltl2dpa.determinize_s",
    "arena.build_game": "arena.build_s",
    "solver.zielonka": "solver.solve_s",
    "solver.check": "solver.check_s",
    "solver.predecessors": "solver.preds_s",
}
LTL2DPA_SELF = ("ltl2dpa.apa_s", "ltl2dpa.nba_s", "ltl2dpa.determinize_s", "ltl2dpa.tidy_s")
COUNTS = (
    "imp.states",
    "ltl2dpa.calls",
    "ltl2dpa.apa_states",
    "ltl2dpa.nba_states",
    "ltl2dpa.dpa_states",
    "ltl2dpa.dpa_colors",
    "arena.vertices",
    "arena.edges",
    "arena.automaton_vertices",
    "solver.priorities",
)

# (name, unit) of every per-layer metric, in the order they are printed
METRICS = (
    [(m, "s") for m in SELF_METRIC.values()]
    + [("ltl2dpa.translate_s", "s"), ("ltl2dpa.self_s", "s")]
    + [(m, "count") for m in COUNTS]
    + [
        ("ltl2dpa.distinct_bodies", "count"),
        ("ltl2dpa.repeat_ratio", "ratio"),
        ("ltl2dpa.nba_deterministic_share", "ratio"),
        ("arena.vertices_per_s", "1/s"),
        ("arena.bytes_per_vertex", "B"),
        ("trace.check_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * _PAGE


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` installs it."""

    def __init__(self) -> None:
        # Resident memory before any check ran: the base for bytes per vertex.
        self._rss_base = _rss_bytes()
        self.spans: list = []  # (name, start, end, parent index or -1, check id)
        self.check_id: "str | None" = None
        self._stack: list[int] = []
        self._restore: list = []
        self._reset_pass()

    def _reset_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._counts = dict.fromkeys(COUNTS, 0)
        self._nba_deterministic = 0
        self._bodies: set = set()
        self._largest_arena = (0, 0)  # (vertices, resident growth after its build)

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        targets = [
            (cli, "run", "cli.run", None),
            (cli, "validate_fragment", "formula.validate", None),
            (cli, "to_nnf", "formula.validate", None),
            (imp, "parse_program", "imp.parse_program", None),
            (imp, "build_cgs", "imp.build_cgs", self._on_cgs),
            (structures, "stutter_transform", "structures.transform", None),
            (structures, "shift_transform", "structures.transform", None),
            (ltl2dpa, "ltl_to_dpa", "ltl2dpa.ltl_to_dpa", self._on_dpa),
            (ltl2dpa, "ltl_to_apa", "ltl2dpa.ltl_to_apa", self._on_apa),
            (ltl2dpa, "apa_to_nba", "ltl2dpa.apa_to_nba", self._on_nba),
            (ltl2dpa, "nba_to_dpa", "ltl2dpa.nba_to_dpa", None),
            (arena, "build_game", "arena.build_game", self._on_arena),
            (solver, "zielonka", "solver.zielonka", self._on_game),
            (solver.ParityGame, "check", "solver.check", None),
            (solver.ParityGame, "predecessors", "solver.predecessors", None),
        ]
        targets += [
            (props, name, "props.expand", None) for name in dir(props) if name.startswith("expand_")
        ]
        for owner, attr, span, after in targets:
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original, after))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.check_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- sizes of what a layer returned ------------------------------------

    def _on_cgs(self, args, g) -> None:
        self._counts["imp.states"] += g.n_states

    def _on_apa(self, args, apa) -> None:
        self._counts["ltl2dpa.apa_states"] += apa.n_states

    def _on_nba(self, args, nba) -> None:
        self._counts["ltl2dpa.nba_states"] += nba.n_states
        if all(len(succs) <= 1 for row in nba.trans for succs in row):
            self._nba_deterministic += 1

    def _on_dpa(self, args, dpa) -> None:
        c = self._counts
        c["ltl2dpa.calls"] += 1
        c["ltl2dpa.dpa_states"] += dpa.n_states
        c["ltl2dpa.dpa_colors"] += dpa.n_colors
        body = args[0]
        atoms = args[1] if len(args) > 1 else None
        self._bodies.add((body, None if atoms is None else tuple(atoms)))

    def _on_arena(self, args, built) -> None:
        grown = _rss_bytes() - self._rss_base
        game = built.game
        c = self._counts
        c["arena.vertices"] += game.n_vertices
        c["arena.edges"] += game.n_edges
        c["arena.automaton_vertices"] += built.n_automaton_vertices
        if game.n_vertices > self._largest_arena[0]:
            self._largest_arena = (game.n_vertices, grown)

    def _on_game(self, args, _solution) -> None:
        self._counts["solver.priorities"] += len(set(args[0].priority))

    # -- per-pass metrics ---------------------------------------------------

    def end_pass(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        spans = self.spans
        first = self._pass_start
        covered = {}
        for name, start, end, parent, _check in spans[first:]:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        m: dict = {metric: 0.0 for metric in SELF_METRIC.values()}
        m["ltl2dpa.translate_s"] = 0.0
        check_s = 0.0
        for index in range(first, len(spans)):
            name, start, end, parent, _check = spans[index]
            m[SELF_METRIC[name]] += (end - start) - covered.get(index, 0.0)
            if name == "ltl2dpa.ltl_to_dpa":
                m["ltl2dpa.translate_s"] += end - start
            if parent < 0:
                check_s += end - start
        m["ltl2dpa.self_s"] = sum(m[k] for k in LTL2DPA_SELF)
        c = self._counts
        calls = c["ltl2dpa.calls"]
        m.update(c)
        m["ltl2dpa.distinct_bodies"] = len(self._bodies)
        m["ltl2dpa.repeat_ratio"] = 1 - len(self._bodies) / calls if calls else 0.0
        m["ltl2dpa.nba_deterministic_share"] = self._nba_deterministic / calls if calls else 0.0
        build_s = m["arena.build_s"]
        m["arena.vertices_per_s"] = c["arena.vertices"] / build_s if build_s else 0.0
        vertices, grown = self._largest_arena
        m["arena.bytes_per_vertex"] = grown / vertices if vertices else 0.0
        m["trace.check_s"] = check_s
        self_sum = sum(m[k] for k in SELF_METRIC.values())
        self._reset_pass()
        return {"metrics": m, "self_sum_s": self_sum}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "check": c}
            for n, s, e, p, c in self.spans
        ]


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
