"""Parity game solving with min-even winning convention.

Player 0 wins a play iff the minimal priority occurring infinitely often is
even.  Zielonka's solver peels the minimal priority and its attractor; each
subgame is one generator, driven from an explicit stack, its minimal
priority comes from one grouping of the vertices by priority, and its
attractors touch only the subgame.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Mapping, Optional

from .graph import cycle_parities, predecessors, scc
from .record import record


@record
class ParityGame:
    """Explicit two-player game; every vertex must have a successor and owner 0 or 1.

    ``succ`` holds one tuple of successors per vertex.  Rows given as lists
    (or any other sequences) are copied to tuples once, when the game is
    made; a row that is a tuple already is kept as it is.  CPython's cyclic
    garbage collector stops tracking a tuple of ints once a collection has
    seen it, so the rows of a long-lived game cost later collections
    nothing.
    """

    succ: tuple[tuple[int, ...], ...]
    owner: list[int]
    priority: list[int]
    initial: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "succ", tuple(map(tuple, self.succ)))

    @property
    def n_vertices(self) -> int:
        return len(self.succ)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.succ))

    def predecessors(self) -> list[list[int]]:
        return predecessors(self.succ)

    def check(self) -> None:
        n = self.n_vertices
        if not (len(self.owner) == len(self.priority) == n):
            raise ValueError("inconsistent vertex arrays")
        if not 0 <= self.initial < n:
            raise ValueError("initial vertex out of range")
        if not {0, 1}.issuperset(self.owner):
            v = next(v for v, o in enumerate(self.owner) if o != 0 and o != 1)
            raise ValueError(f"vertex {v} has owner {self.owner[v]!r}, not 0 or 1")
        for v, row in enumerate(self.succ):
            if not row:
                raise ValueError(f"vertex {v} has no successor")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"edge {v}->{t} out of range")


# per player p, a translation table that maps byte p to 1 and every other byte to 0
_IS = [bytes(b == p for b in range(256)) for p in (0, 1)]


@record
class WinningRegions:
    """The winner, 0 or 1, of each vertex ``v`` of a game: ``won[v]``.

    ``w0`` and ``w1`` build a frozenset of a region on each call, and keep
    none, so a kept solution holds one byte per vertex; a loop over vertices
    asks :meth:`winner` instead.
    """

    won: bytes

    @property
    def w0(self) -> frozenset[int]:
        return self._region(0)

    @property
    def w1(self) -> frozenset[int]:
        return self._region(1)

    def _region(self, player: int) -> frozenset[int]:
        return frozenset(compress(range(len(self.won)), self.won.translate(_IS[player])))

    def winner(self, v: int) -> int:
        if not 0 <= v < len(self.won):
            raise IndexError(f"vertex {v} is not one of the game's {len(self.won)} vertices")
        return self.won[v]


def zielonka(game: ParityGame, stats: Optional[dict] = None):
    """Solve the game; returns (regions, strategy for 0, strategy for 1).

    Each strategy is defined on all vertices its player both owns and wins,
    keeps the play inside the winning region, and is certified by
    :func:`verify_strategy` in the test suite.

    A game with more than three priorities is cut into strongly connected
    components, which are decided bottom first, so every edge that leaves a
    component leads into a region already decided (Friedmann & Lange, ATVA
    2009).  A vertex on no cycle goes to its owner if some successor is in
    the owner's region, and to the opponent otherwise.  Inside a component
    with a cycle, a vertex with an edge into its owner's region is that
    owner's seed: player 0's attractor to its seeds runs first, and a
    player-1 seed's edge into player 1's region counts there as an escape;
    player 1's attractor to its seeds follows, and Zielonka's algorithm
    solves what is left.  Predecessors are listed per component, and only
    for its own edges.  A game with at most three priorities (every arena
    of the bundled suites) is not cut into components: Zielonka's algorithm
    runs on the whole game, though it may still solve many subgames there
    (21 for ``q2-od-async``).  Each run of Zielonka's algorithm, on the
    whole game or on what is left of a component, groups its vertices by
    priority once, and each subgame finds its least priority from there
    (see :meth:`_Solver.solve`), not by scanning its vertices.

    When a subgame's child leaves the opponent a region ``w[o]``, the
    opponent's attractor to it runs before the repeat.  The player's part
    ``w[p]`` of the child is a trap for the opponent there, so only a vertex
    of ``attr``, the player's attractor to the least priority, can be the
    first one attracted.  If ``attr`` holds fewer vertices than ``w[o]``,
    the attractor is seeded from ``attr``'s successors and walks only the
    predecessors of the vertices it adds; otherwise it walks those of every
    vertex of ``w[o]`` (see :meth:`_Solver.attract`).  Both add the same
    vertices.

    If ``stats`` is given, it receives ``calls``, the number of subgames
    solved, and ``attractor_edges``, the predecessor edges the attractors
    visited plus the successor edges their seeding passes scanned; a
    subgame whose vertices all have its least priority runs no attractor.
    """
    game.check()
    n = game.n_vertices
    if len(set(game.priority)) <= 3:
        solver = _Solver(game, game.predecessors(), stats is not None)
        w, strategy = solver.solve(set(range(n)))
        # the smaller region is written over the other player's
        p = 0 if len(w[0]) < len(w[1]) else 1
        won = bytearray([1 - p]) * n
        for v in w[p]:
            won[v] = p
    else:
        # predecessors inside components, listed as each one is reached
        solver = _Solver(game, [None] * n, stats is not None)
        won, strategy = _solve_by_components(game, solver)
    if stats is not None:
        stats["calls"] = solver.calls
        stats["attractor_edges"] = solver.edges
    return WinningRegions(bytes(won)), strategy[0], strategy[1]


def _solve_by_components(game: ParityGame, solver: "_Solver"):
    """The winner of each vertex and strategies ``[s0, s1]``, one component at a time."""
    succ, owner = game.succ, game.owner
    # the winner of each decided vertex, 2 while undecided: the components
    # come bottom first, so an undecided successor lies in the same component
    won = bytearray([2]) * game.n_vertices
    preds = solver.preds
    strategy: list[dict] = [{}, {}]
    for comp in scc(succ):
        if type(comp) is int:
            v = comp
            p = owner[v]
            for t in succ[v]:
                if won[t] == p:
                    strategy[p][v] = t
                    break
            else:
                p = 1 - p
            won[v] = p
            continue
        for v in comp:
            preds[v] = []
        seeds: list[set] = [set(), set()]
        escapes = []
        for v in comp:
            p = owner[v]
            seeded = False
            for t in succ[v]:
                w = won[t]
                if w == 2:
                    preds[t].append(v)
                elif w == p and not seeded:
                    seeded = True
                    strategy[p][v] = t
                    seeds[p].add(v)
                    if p:
                        escapes.append(t)
        # the component's rows stay until the game is solved: as tuples, the
        # cyclic collector stops walking them
        for v in comp:
            preds[v] = tuple(preds[v])
        rest = set(comp).difference(seeds[0])
        if seeds[0]:
            # the edge of a player-1 seed into player 1's region, outside
            # the component, is an escape from player 0's attractor
            rest.update(escapes)
            solver.attract(0, seeds[0], rest, strategy[0])
            rest.difference_update(escapes)
        if seeds[1]:
            rest.difference_update(seeds[1])
            solver.attract(1, seeds[1], rest, strategy[1])
        w, s = solver.solve(rest) if rest else ([set(), set()], [{}, {}])
        for p in (0, 1):
            for v in chain(seeds[p], w[p]):
                won[v] = p
            strategy[p] = _merge(strategy[p], s[p])
    return won, strategy


class _Solver:
    """The state of one :func:`zielonka` run.

    ``solve`` runs Zielonka's recursive algorithm on one subgame, one
    :meth:`_subgame` generator per subgame, driven from an explicit stack: a
    subgame is a set of vertices, and its attractors touch only its vertices
    and their edges.  ``attract`` is the one attractor,
    used by the recursion and to spread the regions decided below a
    component into it.  ``preds`` lists the predecessors of each vertex: all
    of them, or, when the game is solved one component at a time, those in
    the vertex's component, listed when that component is reached.
    """

    def __init__(self, game: ParityGame, preds: list, count: bool) -> None:
        self.succ, self.owner, self.priority = game.succ, game.owner, game.priority
        self.preds = preds
        self.count = count
        self.calls = 0
        self.edges = 0

    def attract(self, player: int, attr: set, rest: set, strategy: dict, border=None) -> None:
        """Move to ``attr`` the vertices of ``rest`` that ``player`` can force into it.

        The subgame is ``attr | rest`` and stays so; an opponent's edge out
        of it is no escape.  A vertex of ``rest`` is attracted only as a
        listed predecessor of a vertex of ``attr``, so a vertex outside the
        listed edges stays in ``rest`` and the opponent's edges into it are
        escapes.  Attracted vertices of ``player`` get the edge they use in
        ``strategy``.

        Without ``border``, the predecessors of every vertex of ``attr`` are
        walked.  With it, they are not: ``border`` must hold every vertex of
        ``rest`` that ``player`` can force into ``attr`` in one step.  One
        pass over the successors of ``border`` finds those vertices, and
        counts the other opponent vertices' edges into ``rest``; after it,
        only the predecessors of vertices added in this call are walked, and
        an opponent vertex first met there counts its edges into ``rest``
        and into the vertices added, never those into ``attr``.  Zielonka's
        repeat passes the player's attractor to the least priority as
        ``border`` when it holds fewer vertices than ``attr``, the region
        ``player`` won in the child: the rest of ``rest`` is the other
        player's part of the child, a trap for ``player`` there, so none of
        its vertices can be forced into ``attr`` in one step.
        """
        succ, preds, owner = self.succ, self.preds, self.owner
        escapes: dict[int, int] = {}
        # todo lists, and walked holds, the vertices whose predecessors are walked
        if border is None:
            todo = list(attr)
            walked = attr
        else:
            todo = []
            for v in border:
                if owner[v] == player:
                    for t in succ[v]:
                        if t in attr:
                            strategy[v] = t
                            todo.append(v)
                            break
                else:
                    left = 0
                    for t in succ[v]:
                        if t in rest:
                            left += 1
                    if left:
                        escapes[v] = left
                    else:
                        todo.append(v)
            rest.difference_update(todo)
            walked = set(todo)
        for u in todo:
            for v in preds[u]:
                if v not in rest:
                    continue
                if owner[v] == player:
                    rest.discard(v)
                    walked.add(v)
                    strategy[v] = u
                    todo.append(v)
                    continue
                left = escapes.get(v)
                if left is None:
                    left = 0
                    for t in succ[v]:
                        if t in rest or t in walked:
                            left += 1
                left -= 1
                if left:
                    escapes[v] = left
                else:
                    rest.discard(v)
                    walked.add(v)
                    todo.append(v)
        if walked is not attr:
            attr.update(walked)
        if self.count:
            self.edges += sum(map(len, map(preds.__getitem__, todo)))
            if border is not None:
                self.edges += sum(map(len, map(succ.__getitem__, border)))

    def solve(self, vertices: set):
        """Winning regions ``[w0, w1]`` and strategies ``[s0, s1]`` of a subgame.

        The set ``vertices`` is consumed: it becomes part of the result.
        The vertices are grouped once into runs of equal priority, least
        priority first.  Each subgame is a :meth:`_subgame` generator; the
        stack holds one per subgame still open, so nesting is bounded by
        memory, not by the recursion limit.  A generator yields the child
        it needs solved, and the child's result is sent back to it.
        """
        priority = self.priority
        by_priority: dict = {}
        for v in vertices:
            by_priority.setdefault(priority[v], []).append(v)
        runs = [by_priority[m] for m in sorted(by_priority)]
        stack = [self._subgame(vertices, 0, runs)]
        result = None
        while stack:
            try:
                child = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(self._subgame(*child, runs))
                result = None
        return result

    def _subgame(self, sub: set, r: int, runs: list):
        """Zielonka's algorithm on ``sub``, none of whose vertices lies in a run before ``runs[r]``.

        No subgame is scanned for its least priority: it steps past the runs
        that hold none of its vertices, and the first run that does gives
        the least priority and its vertices.  The first child starts after
        that run, since it has none of those vertices, and the repeat at the
        same run, since it is part of the subgame.  Yields each child as
        ``(vertices, run)``; returns what :meth:`solve` does.
        """
        self.calls += 1
        if not sub:
            return [set(), set()], [{}, {}]
        top = list(filter(sub.__contains__, runs[r]))
        while not top:
            r += 1
            top = list(filter(sub.__contains__, runs[r]))
        p = self.priority[top[0]] & 1
        o = 1 - p
        attr = set(top)
        sub.difference_update(top)
        strategy: dict = {}
        if sub:
            self.attract(p, attr, sub, strategy)
        if not sub:
            # the player's attractor to the minimal priority is everything
            return self._won_by(p, attr, top, strategy, [{}, {}])
        w, s = yield sub, r + 1
        if not w[o]:
            return self._won_by(p, _merge(w[p], attr), top, _merge(s[p], strategy), s)
        # the opponent wins part: remove their attractor and repeat
        won, earlier = w[o], s[o]
        # w[p] is a trap for o in the child, so only a vertex of attr can be
        # the first one o attracts: a small attr is the cheaper seed
        border = list(attr) if len(attr) < len(won) else None
        rest = _merge(w[p], attr)
        escape: dict = {}
        before = len(rest)
        self.attract(o, won, rest, escape, border)
        if len(rest) == before:
            # The attractor added nothing, so the repeat would solve
            # attr | w[p]: its attractor to the minimal priority is
            # attr again, and w[p] is left, which p wins entirely.
            w, s = self._won_by(p, rest, top, _merge(s[p], strategy), s)
            w[o] = won
            return w, s
        w, s = yield rest, r
        w[o] = _merge(w[o], won)
        s[o] = _merge(_merge(s[o], escape), earlier)
        return w, s

    def _won_by(self, p: int, region: set, top: list, strategy: dict, s: list):
        """The result for a subgame ``region`` that ``p`` wins entirely.

        ``strategy`` covers ``p``'s vertices outside ``top``; those of ``p``
        in ``top``, of minimal priority, may move anywhere inside.
        """
        succ, owner = self.succ, self.owner
        for v in top:
            if owner[v] == p:
                for t in succ[v]:
                    if t in region:
                        strategy[v] = t
                        break
        s[p] = strategy
        w: list = [set(), set()]
        w[p] = region
        return w, s


def _merge(a, b):
    """Union of two disjoint sets or dicts, built by extending the larger."""
    if len(a) < len(b):
        a, b = b, a
    a.update(b)
    return a


def verify_strategy(
    game: ParityGame,
    regions: WinningRegions,
    strategy0: Mapping[int, int],
    strategy1: Mapping[int, int],
) -> bool:
    """Certify both strategies: closure of the regions plus cycle parity.

    ``regions`` must give each vertex of the game the winner 0 or 1.
    Restricting a player's moves to their strategy inside their region must
    leave no reachable cycle whose minimal priority favours the opponent,
    and the opponent must be unable to leave the region.
    """
    won, n = regions.won, game.n_vertices
    if len(won) != n or won.translate(None, b"\0\1"):
        return False
    succ, owner = game.succ, game.owner
    for player, strategy in ((0, strategy0), (1, strategy1)):
        edges: list = [()] * n
        for v in compress(range(n), won.translate(_IS[player])):
            if owner[v] == player:
                if v not in strategy:
                    return False
                t = strategy[v]
                if t not in succ[v] or won[t] != player:
                    return False
                edges[v] = (t,)
            else:
                if any(won[t] != player for t in succ[v]):
                    return False
                edges[v] = succ[v]
        # no cycle inside the restriction may have opponent parity
        if any(bits >> (1 - player) & 1 for bits in cycle_parities(edges, game.priority)):
            return False
    return True
