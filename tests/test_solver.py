import random
import sys
import time

import pytest

from conftest import random_game
from oracles import brute_force_solve
from hyperatl import solver
from hyperatl.solver import ParityGame, WinningRegions, verify_strategy, zielonka


def single(priority):
    return ParityGame(succ=[[0]], owner=[0], priority=[priority])


def test_single_even_loop_won_by_zero():
    regions, s0, s1 = zielonka(single(0))
    assert regions.w0 == frozenset({0})
    assert regions.w1 == frozenset()
    assert s0 == {0: 0}


def test_single_odd_loop_won_by_one():
    regions, s0, s1 = zielonka(single(1))
    assert regions.w1 == frozenset({0})
    assert s1 == {}  # player 1 wins but owns nothing here
    assert verify_strategy(single(1), regions, s0, s1)
    owned = ParityGame(succ=[[0]], owner=[1], priority=[1])
    regions, s0, s1 = zielonka(owned)
    assert regions.w1 == frozenset({0})
    assert s1 == {0: 0}


def test_two_cycle_priorities():
    g = ParityGame(succ=[[1], [0]], owner=[0, 1], priority=[1, 0])
    assert brute_force_solve(g).w0 == frozenset({0, 1})
    g2 = ParityGame(succ=[[1], [0]], owner=[0, 1], priority=[1, 3])
    assert brute_force_solve(g2).w1 == frozenset({0, 1})


def test_games_owned_entirely_by_one_player():
    rng = random.Random(12)
    for _ in range(40):
        g = random_game(rng)
        for player in (1, 0):
            h = ParityGame(g.succ, [player] * g.n_vertices, g.priority, g.initial)
            assert zielonka(h)[0] == brute_force_solve(h)


def test_zielonka_matches_brute_force_on_random_games():
    rng = random.Random(7)
    for _ in range(200):
        g = random_game(rng, max_vertices=8, max_degree=3, max_priority=4)
        regions, s0, s1 = zielonka(g)
        assert regions == brute_force_solve(g)
        assert verify_strategy(g, regions, s0, s1)
        assert regions.w0 | regions.w1 == frozenset(range(g.n_vertices))
        assert not (regions.w0 & regions.w1)


def test_verify_rejects_corrupted_strategy():
    # player 0 must loop on the even cycle; redirecting to the odd loop fails
    g = ParityGame(succ=[[0, 1], [1]], owner=[0, 0], priority=[0, 1])
    regions, s0, s1 = zielonka(g)
    assert regions.w0 == frozenset({0})
    bad = dict(s0)
    bad[0] = 1
    assert not verify_strategy(g, regions, bad, s1)


def test_verify_rejects_odd_cycle_inside_region():
    # both vertices stay in W0, but looping on vertex 1 sees only priority 1
    g = ParityGame(succ=[[0, 1], [1, 0]], owner=[0, 0], priority=[0, 1])
    regions, s0, s1 = zielonka(g)
    assert regions.w0 == frozenset({0, 1})
    assert verify_strategy(g, regions, s0, s1)
    assert not verify_strategy(g, regions, {0: 1, 1: 1}, s1)


def test_verify_rejects_odd_cycle_below_an_even_minimum():
    # the whole game is one component with minimal priority 0, but if
    # player 0 returns from vertex 2 to vertex 1, player 1 can cycle
    # 1 -> 2 -> 1 with minimal priority 1, away from vertex 0
    g = ParityGame(succ=[[1], [0, 2], [1, 0]], owner=[0, 1, 0], priority=[0, 2, 1])
    regions, s0, s1 = zielonka(g)
    assert regions.w0 == frozenset({0, 1, 2})
    assert verify_strategy(g, regions, s0, s1)
    assert not verify_strategy(g, regions, {0: 1, 2: 1}, s1)


def test_verify_rejects_a_won_vertex_its_strategy_misses():
    g = single(0)
    regions, s0, s1 = zielonka(g)
    assert regions.w0 == frozenset({0}) and verify_strategy(g, regions, s0, s1)
    assert not verify_strategy(g, regions, {}, s1)


def test_verify_rejects_a_region_the_opponent_can_leave():
    # player 1 owns both vertices and wins both from the odd loop on 1;
    # a claim that player 0 wins vertex 0 fails, as player 1 moves to 1
    g = ParityGame(succ=[[1], [1]], owner=[1, 1], priority=[0, 1])
    regions, s0, s1 = zielonka(g)
    assert regions.w1 == frozenset({0, 1}) and verify_strategy(g, regions, s0, s1)
    claimed = WinningRegions(won=bytes([0, 1]))
    assert not verify_strategy(g, claimed, {}, {1: 1})


@pytest.mark.parametrize(
    "won",
    [bytes([1]), bytes([1, 1, 1]), b"", bytes([1, 2]), bytes([255, 1]), bytes([2, 2])],
    ids=["short", "long", "empty", "winner 2", "winner 255", "no winner 0 or 1"],
)
def test_verify_rejects_regions_that_are_not_one_winner_0_or_1_per_vertex(won):
    g = ParityGame(succ=[[1], [1]], owner=[1, 1], priority=[0, 1])
    regions, s0, s1 = zielonka(g)
    assert regions.won == bytes([1, 1]) and verify_strategy(g, regions, s0, s1)
    assert not verify_strategy(g, WinningRegions(won), s0, s1)


def test_winner_refuses_a_vertex_outside_the_game():
    g = ParityGame(succ=[[0], [1]], owner=[0, 1], priority=[0, 1])
    regions = zielonka(g)[0]
    assert [regions.winner(0), regions.winner(1)] == [0, 1]
    # a negative index would read a byte from the end
    for v in (-1, -2, 2, 10**6):
        with pytest.raises(IndexError):
            regions.winner(v)


def test_verify_vacuous_on_empty_region():
    g = single(1)
    regions, s0, s1 = zielonka(g)
    assert regions.w0 == frozenset()
    assert verify_strategy(g, regions, {}, s1)


def test_priority_shift_by_two_preserves_regions():
    rng = random.Random(31)
    for _ in range(60):
        g = random_game(rng)
        shifted = ParityGame(
            succ=g.succ, owner=g.owner, priority=[p + 2 for p in g.priority]
        )
        assert zielonka(g)[0] == zielonka(shifted)[0]


def test_priority_shift_with_role_swap_swaps_regions():
    # the dual game: priorities +1 and ownership flipped
    rng = random.Random(32)
    for _ in range(60):
        g = random_game(rng)
        dual = ParityGame(
            succ=g.succ,
            owner=[1 - o for o in g.owner],
            priority=[p + 1 for p in g.priority],
        )
        r = zielonka(g)[0]
        rd = zielonka(dual)[0]
        assert r.w0 == rd.w1 and r.w1 == rd.w0


def test_plain_priority_plus_one_need_not_swap():
    # player 0 freely picks between an even and an odd cycle, so it wins the
    # vertex before and after the shift; the naive swap claim is false
    g = ParityGame(succ=[[0, 1], [1]], owner=[0, 0], priority=[0, 1])
    shifted = ParityGame(succ=[[0, 1], [1]], owner=[0, 0], priority=[1, 2])
    assert brute_force_solve(g).w0 == frozenset({0})
    assert brute_force_solve(shifted).w0 == frozenset({0, 1})


def test_brute_force_bound():
    g = ParityGame(
        succ=[[(v + 1) % 30, v, (v + 2) % 30] for v in range(30)],
        owner=[0] * 30,
        priority=[0] * 30,
    )
    with pytest.raises(ValueError, match="bound"):
        brute_force_solve(g, bound=1 << 10)


def test_check_rejects_missing_successor():
    g = ParityGame(succ=[[]], owner=[0], priority=[0])
    with pytest.raises(ValueError, match="no successor"):
        zielonka(g)


@pytest.mark.parametrize("owner", [2, -1])
def test_check_rejects_owner_other_than_zero_or_one(owner):
    g = ParityGame(succ=[[1], [0]], owner=[0, owner], priority=[0, 1])
    with pytest.raises(ValueError, match=f"vertex 1 has owner {owner}, not 0 or 1"):
        zielonka(g)


def test_rows_given_as_lists_are_held_as_tuples():
    succ = [[1, 0], [0]]
    g = ParityGame(succ=succ, owner=[0, 1], priority=[0, 1])
    assert g.succ == ((1, 0), (0,))
    assert type(g.succ) is tuple and all(type(row) is tuple for row in g.succ)
    # the lists are copied once: changing them later leaves the game as it was
    succ[0].append(1)
    assert g.succ[0] == (1, 0)
    # tuple rows are kept as they are, not copied again
    h = ParityGame(g.succ, g.owner, g.priority)
    assert all(a is b for a, b in zip(h.succ, g.succ))


def solve_within(game, seconds, stats=None):
    start = time.perf_counter()
    solution = zielonka(game, stats)
    elapsed = time.perf_counter() - start
    assert elapsed <= seconds, f"{elapsed:.1f}s (budget {seconds}s)"
    return solution


def test_many_disjoint_two_cycles_need_no_recursion():
    # cycle i is 2i -> 2i+1 -> 2i with priorities i and k+i: its minimum is i
    k = 1200
    succ, owner, priority = [], [], []
    for i in range(k):
        succ += [[2 * i + 1], [2 * i]]
        owner += [i % 2, 1 - i % 2]
        priority += [i, k + i]
    game = ParityGame(succ=succ, owner=owner, priority=priority)
    regions, s0, s1 = solve_within(game, 5.0)
    assert regions.w0 == frozenset(v for v in range(2 * k) if (v // 2) % 2 == 0)
    assert verify_strategy(game, regions, s0, s1)


def test_many_disjoint_self_loops_need_no_recursion():
    n = 1500
    game = ParityGame(
        succ=[[v] for v in range(n)], owner=[(v // 2) % 2 for v in range(n)], priority=list(range(n))
    )
    regions, s0, s1 = solve_within(game, 5.0)
    assert regions.w0 == frozenset(range(0, n, 2))
    assert verify_strategy(game, regions, s0, s1)


def solve_deep_chain(n: int, seconds: float) -> None:
    """Solve one strongly connected component whose subgames nest ``n / 2`` deep.

    Vertex v has priority v, a self-loop and an edge to v - 1 (0 to n - 1),
    and belongs to the player its priority does not favour.  The attractor
    to the minimal priority v takes only v and v + 1; player 0 wins all.
    """
    game = ParityGame(
        succ=[[v, (v - 1) % n] for v in range(n)],
        owner=[1 - v % 2 for v in range(n)],
        priority=list(range(n)),
    )
    stats: dict = {}
    regions, s0, s1 = solve_within(game, seconds, stats)
    assert stats["calls"] >= n // 2
    assert regions.w0 == frozenset(range(n))
    assert verify_strategy(game, regions, s0, s1)


def test_deep_recursion_inside_one_component():
    solve_deep_chain(2400, 5.0)


def test_deep_recursion_does_not_rescan_each_subgame():
    # The subgames nest 10,000 deep: finding each one's least priority by
    # scanning it would take several seconds.
    solve_deep_chain(20_000, 2.0)


def mid_size_game(rng: random.Random, n_priorities: int) -> ParityGame:
    """Shaped like the games of the solve-random benchmark workload."""
    n = rng.randint(200, 2000)
    return ParityGame(
        succ=[rng.sample(range(n), rng.randint(1, 2)) for _ in range(n)],
        owner=[rng.randint(0, 1) for _ in range(n)],
        priority=[rng.randrange(n_priorities) for _ in range(n)],
    )


def test_mid_size_random_games_are_certified_and_relabelling_invariant():
    # every third game has at most three priorities, which zielonka solves
    # without the strongly connected decomposition
    rng = random.Random(2024)
    for i in range(30):
        game = mid_size_game(rng, rng.randint(2, 3) if i % 3 == 0 else rng.randint(4, 200))
        n = game.n_vertices
        regions, s0, s1 = zielonka(game)
        assert len(regions.won) == n and sys.getsizeof(regions.won) < n + 100
        assert regions.w0 | regions.w1 == frozenset(range(n))
        assert not (regions.w0 & regions.w1)
        assert verify_strategy(game, regions, s0, s1)
        perm = list(range(n))
        rng.shuffle(perm)
        succ: list = [None] * n
        owner, priority = [0] * n, [0] * n
        for v in range(n):
            row = [perm[t] for t in game.succ[v]]
            rng.shuffle(row)
            succ[perm[v]], owner[perm[v]], priority[perm[v]] = row, game.owner[v], game.priority[v]
        relabelled = zielonka(ParityGame(succ, owner, priority))[0]
        assert relabelled.w0 == frozenset(perm[v] for v in regions.w0)


@pytest.mark.parametrize("components", [False, True], ids=["whole game", "components"])
def test_regions_hold_one_winner_byte_per_vertex(components):
    # a game with more than three priorities is solved one component at a time
    rng = random.Random(53)
    games = 0
    while games < 100:
        g = random_game(rng, max_vertices=8, max_degree=3, max_priority=8 if components else 2)
        if (len(set(g.priority)) > 3) != components:
            continue
        games += 1
        n = g.n_vertices
        regions = zielonka(g)[0]
        assert len(regions.won) == n
        assert regions.w0 | regions.w1 == frozenset(range(n))
        assert not (regions.w0 & regions.w1)
        # the compact form: no set and no list of the vertices is kept
        assert sys.getsizeof(regions.won) < n + 100
        assert regions == brute_force_solve(g)


def test_stats_count_subgames_and_attractor_edges():
    # player 1 moves from 1 back to 0 and wins by seeing priority 1 forever
    game = ParityGame(succ=[[1], [0, 1]], owner=[0, 1], priority=[1, 2])
    stats: dict = {}
    regions, _, _ = zielonka(game, stats)
    assert regions.w1 == frozenset({0, 1})
    assert stats["calls"] >= 1 and stats["attractor_edges"] >= 1
    again: dict = {}
    zielonka(game, again)
    assert again == stats


def test_second_call_skipped_when_the_opponent_attracts_nothing():
    # 0 (priority 0) leads into the even cycle 1-2; the odd cycle 3-4 is
    # closed.  At the root and in the subgame of priority 1 the opponent's
    # attractor to what it won adds nothing, so neither repeats its call:
    # three subgames are solved, where the full recursion solves six.
    game = ParityGame(
        succ=[[1], [2, 0], [1], [4], [3]],
        owner=[1, 1, 1, 0, 0],
        priority=[0, 2, 2, 1, 1],
    )
    stats: dict = {}
    regions, s0, s1 = zielonka(game, stats)
    assert regions == brute_force_solve(game)
    assert regions.w0 == frozenset({0, 1, 2}) and regions.w1 == frozenset({3, 4})
    assert verify_strategy(game, regions, s0, s1)
    assert stats["calls"] == 3


def test_the_repeat_counts_a_vertex_against_the_vertices_added_not_the_region_won():
    # Priority 0 is y (0), player 1's, whose only edge leads to a (1) in
    # the cycle-free region {a, b} player 1 wins below it, with priority 1.
    # Player 0 wins z (3) and x (4) there, with priority 2, and {y} is
    # smaller than {a, b}: player 1's attractor to {a, b} starts from y.  It
    # adds y, then z through its edge to y, then player 0's x, whose edges
    # lead to z and to a: x is counted against z alone, so z adds it.
    game = ParityGame(
        succ=[[1], [1], [2], [0, 3], [3, 1]],
        owner=[1, 1, 1, 1, 0],
        priority=[0, 1, 1, 2, 2],
    )
    stats: dict = {}
    regions, s0, s1 = zielonka(game, stats)
    assert regions == brute_force_solve(game)
    assert regions.w1 == frozenset(range(5))
    assert s1[0] == 1 and s1[3] == 0
    assert verify_strategy(game, regions, s0, s1)
    # the repeat scans y's one edge and walks the predecessors of y, z and
    # x, not those of a and b
    assert stats == {"calls": 4, "attractor_edges": 11}


def test_attractors_seeded_from_the_border_match_brute_force(monkeypatch):
    # Games with 4-12 priorities are solved one component at a time; over
    # these 600 games, 94 repeats seed the opponent's attractor from a
    # least-priority attractor smaller than the region the opponent won.
    seeded = [0]
    attract = solver._Solver.attract

    def counted(self, player, attr, rest, strategy, border=None):
        seeded[0] += border is not None
        attract(self, player, attr, rest, strategy, border)

    monkeypatch.setattr(solver._Solver, "attract", counted)
    rng = random.Random(44)
    for _ in range(600):
        n_priorities = rng.randint(4, 12)
        g = random_game(rng, max_vertices=10, max_degree=3, max_priority=n_priorities - 1)
        regions, s0, s1 = zielonka(g)
        assert regions == brute_force_solve(g)
        assert verify_strategy(g, regions, s0, s1)
    assert seeded[0] >= 60


def test_attractor_work_stays_within_twice_the_edges_on_mid_size_games():
    # The repeat walks only the predecessors of the vertices its attractor
    # adds, not those of every vertex the opponent won below it, a region
    # that grows up the recursion: that took 2.13 times the edges, this 1.34.
    rng = random.Random(99)
    edges = work = 0
    for _ in range(40):
        game = mid_size_game(rng, rng.randint(4, 200))
        stats: dict = {}
        zielonka(game, stats)
        edges += game.n_edges
        work += stats["attractor_edges"]
    assert work <= 1.8 * edges


def test_player_one_escapes_into_the_region_player_one_won_below():
    # The bottom component {0, 1} splits: player 0 loops on 0 (priority 0),
    # player 1 loops on 1 (priority 1).  Player 1's vertex 2 above it has
    # one edge into each region, so player 0's attractor to {0} must count
    # the edge into {1} as an escape and leave 2 to player 1; so is 3,
    # whose only edge leads to 2.  Four priorities select the decomposition.
    game = ParityGame(
        succ=[[0, 1], [1, 0], [0, 1], [2]],
        owner=[0, 1, 1, 0],
        priority=[0, 1, 2, 3],
    )
    regions, s0, s1 = zielonka(game)
    assert regions == brute_force_solve(game)
    assert regions.w0 == frozenset({0}) and regions.w1 == frozenset({1, 2, 3})
    assert s1[2] == 1
    assert verify_strategy(game, regions, s0, s1)


def test_component_decomposition_matches_brute_force_on_random_games():
    # With up to seven priorities most of these games are solved one
    # component at a time, and small ones often have a player-1 vertex on a
    # cycle with an edge down into a region player 1 won below.
    rng = random.Random(18)
    for _ in range(1000):
        g = random_game(rng, max_vertices=9, max_degree=3, max_priority=6)
        regions, s0, s1 = zielonka(g)
        assert regions == brute_force_solve(g)
        assert verify_strategy(g, regions, s0, s1)


def test_sparse_repeated_priorities_match_brute_force():
    # Each game draws its priorities, with repeats, from a few values of
    # range(50), so the priorities leave gaps and a run of equal priority
    # can hold several vertices; a game with at most three of them is
    # solved whole, one with more one component at a time.
    rng = random.Random(35)
    paths = [0, 0]
    for _ in range(600):
        values = rng.sample(range(50), rng.randint(1, 6))
        g = random_game(rng, max_vertices=10, max_degree=3)
        g = ParityGame(g.succ, g.owner, [rng.choice(values) for _ in g.priority])
        paths[len(set(g.priority)) > 3] += 1
        regions, s0, s1 = zielonka(g)
        assert regions == brute_force_solve(g)
        assert verify_strategy(g, regions, s0, s1)
    assert min(paths) >= 100


def test_player_one_keeps_its_edge_down_from_inside_a_component():
    # The bottom component {0, 1} splits: 0 goes to player 0, 1 to player 1.
    # Above it, {2, 3} is a cycle.  Player 0's vertex 3 has an edge down to
    # 0, so player 0's attractor starts there; player 1's vertex 2 reaches 3
    # but also has an edge down to 1, which must count as its escape: 2 goes
    # to player 1 and 3 to player 0.
    game = ParityGame(
        succ=[[0, 1], [1, 0], [3, 1], [2, 0]],
        owner=[0, 1, 1, 0],
        priority=[0, 1, 2, 4],
    )
    regions, s0, s1 = zielonka(game)
    assert regions == brute_force_solve(game)
    assert regions.w0 == frozenset({0, 3}) and regions.w1 == frozenset({1, 2})
    assert s0[3] == 0 and s1[2] == 1
    assert verify_strategy(game, regions, s0, s1)


def path_into_cycle(length: int) -> ParityGame:
    """A path of ``length`` vertices into a cycle with four priorities.

    Player 1's vertex 3 picks between the cycles 0-1-2-3 (minimal priority
    0) and 2-3 (minimal priority 1), so player 1 wins everything.  Path
    vertex ``4 + i`` moves to ``3 + i``, the first one to vertex 3.
    """
    succ = [[1], [2], [3], [0, 2]] + [[3 + i] for i in range(length)]
    owner = [0, 0, 0, 1] + [i % 2 for i in range(length)]
    priority = [0, 3, 1, 2] + [i % 4 for i in range(length)]
    return ParityGame(succ=succ, owner=owner, priority=priority)


def test_off_cycle_vertices_cost_no_attractor_work():
    counts = []
    for length, seconds in ((10, 1.0), (50_000, 2.0)):
        game = path_into_cycle(length)
        stats: dict = {}
        regions, s0, s1 = solve_within(game, seconds, stats)
        assert regions.w1 == frozenset(range(game.n_vertices))
        assert s1[3] == 2
        assert verify_strategy(game, regions, s0, s1)
        counts.append(stats["attractor_edges"])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("target", [-1, 2])
def test_check_rejects_edge_out_of_range(target):
    g = ParityGame(succ=[[1], [0, target]], owner=[0, 1], priority=[0, 1])
    with pytest.raises(ValueError, match=f"^edge 1->{target} out of range$"):
        zielonka(g)


@pytest.mark.parametrize("initial", [-1, 2])
def test_check_rejects_initial_out_of_range(initial):
    g = ParityGame(succ=[[1], [0]], owner=[0, 1], priority=[0, 1], initial=initial)
    with pytest.raises(ValueError, match="^initial vertex out of range$"):
        zielonka(g)


@pytest.mark.parametrize("short", ["succ", "owner", "priority"])
def test_check_rejects_vertex_arrays_of_unequal_lengths(short):
    arrays = {"succ": [[1], [0]], "owner": [0, 1], "priority": [0, 1]}
    arrays[short] = arrays[short][:1]
    with pytest.raises(ValueError, match="^inconsistent vertex arrays$"):
        zielonka(ParityGame(**arrays))
