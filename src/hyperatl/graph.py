"""Explicit graph algorithms shared by the checker's layers.

A graph is a list ``succ`` of successor lists over the vertices
``0..n-1``.  :func:`explore` numbers the keys a search reaches from an
initial key, :func:`scc` decomposes a graph into strongly connected
components (a vertex on no cycle comes as a bare ``int``, every other
component as a list), :func:`predecessors` inverts the edges, :func:`refine`
computes the coarsest stable refinement of a partition (a bisimulation), and
:func:`cycle_parities` says which parities of minimal priority the cycles
through each vertex have (nested SCC decomposition as for parity word
automata, King, Kupferman & Vardi, FoSSaCS 2001).  :func:`letter_map`
tabulates a map of bitmask letters, and :func:`dot_string` quotes a name
or label for the DOT exporters.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


def explore(
    init,
    row_of: Callable,
    cap: Optional[int] = None,
    error: Optional[Exception] = None,
) -> tuple[list, list]:
    """Number the keys reachable from ``init`` in breadth-first order.

    ``row_of(key, number)`` returns the row of ``key`` and calls ``number``
    on each successor key to get its vertex.  Numbering a new key when
    ``cap`` keys are numbered already raises ``error``; without a cap the
    search is unbounded.  Returns the keys in vertex order and their rows.
    """
    index = {init: 0}
    order = [init]

    def number(key) -> int:
        got = index.get(key)
        if got is None:
            got = len(order)
            if cap is not None and got >= cap:
                raise error
            index[key] = got
            order.append(key)
        return got

    rows = []
    for key in order:  # grows while the search runs
        rows.append(row_of(key, number))
    return order, rows


def predecessors(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Per vertex: the vertices with an edge into it, in edge order."""
    preds: list[list[int]] = [[] for _ in succ]
    for v, row in enumerate(succ):
        for t in row:
            preds[t].append(v)
    return preds


def refine(block: Sequence, rows: Sequence[Sequence[int]], sign: Optional[Callable] = None) -> list[int]:
    """The coarsest refinement of ``block`` in which equal blocks have equal signatures.

    ``block[v]`` is the initial block of vertex ``v`` (any hashable value)
    and ``rows[v]`` lists its successors in order.  The signature of ``v``
    is the row of its successors' blocks, or ``sign(v, row)`` of that row.
    Two vertices stay together iff they agree on their block and on their
    signatures: one refinement reaches the coarsest stable partition, a
    bisimulation for the plain rows, provided that vertices with equal
    signatures keep them equal when blocks are joined.  The result numbers
    the blocks 0, 1, ... in the order of their first vertex.

    A vertex whose block number changes marks its predecessors, and only
    marked vertices are signed again.  When a block splits, its largest part
    keeps the number, so a vertex moves at most log2(n) times and the work
    follows the edges into moved vertices, not rounds times edges (the
    smaller-half rule of Hopcroft 1971; Paige & Tarjan, SICOMP 1987).
    """
    ids: dict = {}
    block = [ids.setdefault(b, len(ids)) for b in block]
    members: list[set[int]] = [set() for _ in ids]
    for v, b in enumerate(block):
        members[b].add(v)
    preds = predecessors(rows)

    def signature(v: int):
        row = [block[t] for t in rows[v]]
        return tuple(row) if sign is None else sign(v, row)

    def move(part) -> None:
        new = len(members)
        members.append(set(part))
        for v in part:
            block[v] = new
            marked.update(preds[v])

    marked = set(range(len(rows)))
    while marked:
        by_block: dict[int, list[int]] = {}
        for v in marked:
            if len(members[block[v]]) > 1:
                by_block.setdefault(block[v], []).append(v)
        # sign the marked vertices before any number changes; the unmarked
        # members of a block still share one signature, read off any of them
        splits = []
        for b, verts in by_block.items():
            parts: dict[tuple, list[int]] = {}
            for v in verts:
                parts.setdefault(signature(v), []).append(v)
            unmarked = len(members[b]) - len(verts)
            common = None
            if unmarked:
                common = signature(next(v for v in members[b] if v not in marked))
                parts.setdefault(common, [])
            if len(parts) > 1:
                splits.append((b, parts, common, unmarked))
        marked = set()
        for b, parts, common, unmarked in splits:
            keep = max(parts, key=lambda key: len(parts[key]) + (unmarked if key == common else 0))
            for key, part in parts.items():
                if key != keep and key != common:
                    members[b].difference_update(part)
                    move(part)
            if common is not None and common != keep:
                # the unmarked members leave with their part
                kept = set(parts[keep])
                move([v for v in members[b] if v not in kept])
                members[b] = kept
    ids = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def scc(succ: Sequence[Sequence[int]]) -> list[int | list[int]]:
    """Strongly connected components of the graph ``succ``.

    A vertex on no cycle, alone in its component and without a self-loop,
    comes as the ``int`` itself; every other component comes as a list of
    its vertices (``[v]`` for a vertex with a self-loop).  So
    ``type(comp) is int`` tells the components without a cycle.  The
    components come bottom first: every component reachable from another
    one precedes it.  Iterative Tarjan, so the depth of the graph is
    bounded by memory, not by the recursion limit.
    """
    n = len(succ)
    # visit number of a vertex on the stack; -1 before its visit, n after
    # its component is emitted (so it never lowers a low-link)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comps: list[int | list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        work = [(root, iter(succ[root]), len(stack))]
        stack.append(root)
        while work:
            v, it, pos = work[-1]
            lv = low[v]
            for w in it:
                x = index[w]
                if x < 0:
                    low[v] = lv
                    index[w] = low[w] = counter
                    counter += 1
                    work.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    break
                if x < lv:
                    lv = x
            else:
                work.pop()
                if lv == index[v]:
                    if stack[-1] == v:
                        # alone in its component
                        stack.pop()
                        index[v] = n
                        comps.append([v] if v in succ[v] else v)
                    else:
                        comp = stack[pos:]
                        del stack[pos:]
                        for u in comp:
                            index[u] = n
                        comps.append(comp)
                else:
                    low[v] = lv
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
    return comps


def cycle_parities(succ: Sequence[Sequence[int]], priority: Sequence[int]) -> list[int]:
    """Per vertex: bit ``p`` is set iff it lies on a cycle whose minimal priority has parity ``p``.

    A vertex on no cycle, an ``int`` among the components of :func:`scc`,
    gets no bit.  In a component with a cycle, a list, every vertex lies on
    a cycle through a vertex of the component's minimal priority, so all of
    them get that priority's bit.  A cycle of the other parity avoids those
    vertices, so it is sought inside the rest of the component, and only
    while the other bit is still missing.  The vertices of one component
    share their bits, since the same enclosing components set them.
    """
    bits = [0] * len(succ)
    pending = [range(len(succ))]
    while pending:
        verts = pending.pop()
        local = {v: i for i, v in enumerate(verts)}
        sub = [[local[t] for t in succ[v] if t in local] for v in verts]
        for comp in scc(sub):
            if type(comp) is int:
                continue
            members = [verts[i] for i in comp]
            low = min(priority[v] for v in members)
            for v in members:
                bits[v] |= 1 << (low & 1)
            if bits[members[0]] != 3:
                rest = [v for v in members if priority[v] != low]
                if rest:
                    pending.append(rest)
    return bits


def letter_map(images: Sequence[int]) -> list[int]:
    """Per letter over ``len(images)`` bits, the union of ``images[i]`` over its set bits ``i``."""
    table = [0]
    for b in images:  # bit i appends a copy of the table with images[i] set in each entry
        table += list(map(b.__or__, table)) if b else table
    return table


def dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
