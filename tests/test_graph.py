import random

import pytest

from hyperatl.graph import cycle_parities, explore, predecessors, refine, scc


class Capped(Exception):
    pass


def chain(key, number):
    """Row of the path 0 -> 1 -> ... -> 9 -> 9."""
    return [number(min(key + 1, 9))]


def tree(key, number):
    """Row of the complete binary tree of depth 3, keys as paths from the root."""
    return [number(key + c) for c in "ab"] if len(key) < 3 else []


def test_explore_numbers_breadth_first():
    order, rows = explore("", tree)
    assert order[:7] == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert len(order) == 15
    assert rows[0] == [1, 2] and rows[2] == [5, 6] and rows[14] == []


def test_explore_fires_at_exactly_cap_keys():
    order, rows = explore(0, chain)
    assert order == list(range(10))
    assert rows == [[i + 1] for i in range(9)] + [[9]]
    assert explore(0, chain, 10, Capped("cap of 10"))[0] == order
    with pytest.raises(Capped, match="^cap of 9$"):
        explore(0, chain, 9, Capped("cap of 9"))


def test_predecessors_invert_the_edges():
    assert predecessors([[1, 2], [2], [0, 2], []]) == [[2], [0], [0, 1, 2], []]


def reachable(succ) -> list[set[int]]:
    """Per vertex: the vertices it reaches, itself included."""
    closure = []
    for v in range(len(succ)):
        seen = {v}
        todo = [v]
        for u in todo:
            for t in succ[u]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        closure.append(seen)
    return closure


def test_scc_matches_reachability_closure():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 12)
        succ = [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)]
        reach = reachable(succ)
        comps = scc(succ)
        members = [[comp] if type(comp) is int else comp for comp in comps]
        # an entry is an int exactly when its vertex does not reach itself
        # by a nonempty path, and a list otherwise (a self-loop included)
        for comp, verts in zip(comps, members):
            assert type(comp) in (int, list)
            for v in verts:
                on_cycle = any(v in reach[t] for t in succ[v])
                assert (type(comp) is int) == (not on_cycle), (succ, comp)
        assert sorted(v for comp in members for v in comp) == list(range(n))
        position = {v: i for i, comp in enumerate(members) for v in comp}
        for u in range(n):
            for v in range(n):
                mutual = v in reach[u] and u in reach[v]
                assert (position[u] == position[v]) == mutual
                # bottom first: a component precedes those that reach it
                if v in reach[u] and not mutual:
                    assert position[v] < position[u]


def test_scc_of_a_long_path_needs_no_recursion():
    n = 200_000
    succ = [[v + 1] for v in range(n - 1)] + [[]]
    assert scc(succ) == list(reversed(range(n)))


def simple_cycles(succ) -> set[frozenset]:
    """The vertex sets of all simple cycles, each found from its least vertex."""
    found = set()

    def extend(path):
        for t in succ[path[-1]]:
            if t == path[0]:
                found.add(frozenset(path))
            elif t > path[0] and t not in path:
                extend(path + [t])

    for v in range(len(succ)):
        extend([v])
    return found


def brute_cycle_parities(succ, priority) -> list[int]:
    """``cycle_parities`` from the simple cycles alone.

    A cycle (closed walk) with minimal priority ``m`` is a connected union
    of simple cycles whose least minimum is ``m``.  So from every simple
    cycle of minimum ``m``, the simple cycles of minimum at least ``m`` that
    chain to it through shared vertices give their vertices the bit of
    ``m``'s parity.
    """
    cycles = [(min(priority[v] for v in c), c) for c in simple_cycles(succ)]
    bits = [0] * len(succ)
    for low, cycle in cycles:
        reached = set(cycle)
        grown = True
        while grown:
            grown = False
            for m, other in cycles:
                if m >= low and other & reached and not other <= reached:
                    reached |= other
                    grown = True
        for v in reached:
            bits[v] |= 1 << (low & 1)
    return bits


def test_cycle_parities_match_simple_cycle_enumeration():
    rng = random.Random(61)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 7)
        succ = [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)]
        priority = [rng.randint(0, 5) for _ in range(n)]
        bits = cycle_parities(succ, priority)
        assert bits == brute_cycle_parities(succ, priority), (succ, priority)
        seen.update(bits)
    assert seen == {0, 1, 2, 3}


def refine_by_rounds(block, rows):
    """Signature rounds over every vertex until the partition is stable."""
    while True:
        signatures = {}
        new = [
            signatures.setdefault((block[v], tuple(block[t] for t in row)), len(signatures))
            for v, row in enumerate(rows)
        ]
        if new == block:
            return block
        block = new


def test_refine_matches_signature_rounds():
    rng = random.Random(12)
    for _ in range(3000):
        n = rng.randint(1, 12)
        rows = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
        block = [rng.randint(0, 2) for _ in range(n)]
        assert refine(block, rows) == refine_by_rounds(block, rows)


def test_refine_splits_a_long_chain_in_linear_work():
    # every state of an alternating chain into a self-loop is distinct,
    # which signature rounds find only after one round per state
    n = 20000
    rows = [[v + 1] for v in range(n - 1)] + [[n - 1]]
    assert refine([v % 2 for v in range(n)], rows) == list(range(n))
