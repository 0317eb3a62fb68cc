"""Built-in property templates for information-flow and asynchronous checks.

Each builder returns its formula tree, built from the ``formula`` AST
constructors; no formula text is assembled or parsed.  The propositions are
fixed: the output ``o[0]``, the low input ``l[0]``, the high input ``h[0]``
and the stutter marker ``stut`` (see ``structures.stutter_transform``).
Path variables are ``p1``, ``p2``, ... in quantifier order, and a builder
takes the ids of the systems its quantifiers bind.  The tree is all that
``cli`` needs: it checks a builtin's parameters, derives the twin systems
the ids name, and builds each program for the propositions of the atoms,
as it does for a ``--formula``.

Two recipes are intentionally not named builders because the bundled
benchmarks do not exercise them; both are expressible directly:

* strategic non-interference: ``[ forall p1 . <<xi_N>> p2 . ] G (o[0]{p1}
  <-> o[0]{p2})`` — a strategy for the nondeterminism reproduces outputs;
* one-sided stuttering: quantify the reference copy first and give only the
  second, stutter-transformed copy a ``<<sched>>`` coalition.

Deducibility-of-strategies style properties need a negated quantifier
prefix that is outside the supported single-block fragment.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional

from .formula import (
    And,
    Atom,
    Coalition,
    Eventually,
    Exists,
    Forall,
    Globally,
    HyperFormula,
    Iff,
    Implies,
    Ltl,
    Next,
    Not,
    Quantifier,
)
from .structures import SCHED, STUT_PROP

OUT, LOW, HIGH = "o[0]", "l[0]", "h[0]"
_SCHED = Coalition((SCHED,))


def _same(prop: str, left: str, right: str, delay: int = 0) -> Ltl:
    """``prop{left} <-> X^delay prop{right}``."""
    later: Ltl = Atom(prop, right)
    for _ in range(delay):
        later = Next(later)
    return Iff(Atom(prop, left), later)


def _fair(var: str) -> Ltl:
    """``G F ! stut{var}``: the scheduler of ``var`` does not stutter forever."""
    return Globally(Eventually(Not(Atom(STUT_PROP, var))))


def _ni(delay: int = 0) -> Ltl:
    """``G`` equal low inputs ``-> G`` equal outputs, ``p2`` read ``delay`` steps late."""
    return Implies(Globally(_same(LOW, "p1", "p2", delay)), Globally(_same(OUT, "p1", "p2", delay)))


def _copies(n: int, spec, system: Optional[str] = None) -> tuple[Quantifier, ...]:
    """``n`` quantifiers ``spec p1 @ system . ... spec pn @ system .``."""
    return tuple(Quantifier(spec, f"p{i + 1}", system) for i in range(n))


def expand_od() -> HyperFormula:
    """All traces agree on the outputs at every step."""
    return HyperFormula(_copies(2, Forall()), Globally(_same(OUT, "p1", "p2")))


def expand_ni() -> HyperFormula:
    """Equal low inputs force equal outputs."""
    return HyperFormula(_copies(2, Forall()), _ni())


def expand_simsec(sys: str, sys_shift: str) -> HyperFormula:
    """Lock-step matching with a one-step-lookahead strategy for xi_N.

    The second copy runs one position late, so its references carry a next
    operator; the nondeterminism player of the late copy must reproduce the
    reference outputs whenever the low inputs match.
    """
    block = (Quantifier(Forall(), "p1", sys), Quantifier(Coalition(("xi_N",)), "p2", sys_shift))
    return HyperFormula(block, _ni(1))


def expand_sgni(k: int, sys: str, sys_shift_k: str) -> HyperFormula:
    """Existence of a matching trace built with a k-step view on the future.

    The witness copy is shifted by k, so every reference to it carries k
    next operators; it must agree with the first trace on high inputs and
    with the second on outputs and low inputs.
    """
    block = _copies(2, Forall(), sys) + (Quantifier(Exists(), "p3", sys_shift_k),)
    low_out = And(_same(OUT, "p2", "p3", k), _same(LOW, "p2", "p3", k))
    return HyperFormula(block, And(Globally(_same(HIGH, "p1", "p3", k)), Globally(low_out)))


def expand_od_async(sys_stut: str) -> HyperFormula:
    """Schedulers may stutter either copy, fairly, to align the outputs."""
    body = reduce(And, (_fair("p1"), _fair("p2"), Globally(_same(OUT, "p1", "p2"))))
    return HyperFormula(_copies(2, _SCHED, sys_stut), body)


def expand_ni_async(r: str, sys_stut: str) -> HyperFormula:
    """Asynchronous non-interference with aligned read positions.

    The alignment proposition ``r`` forces the schedulers to keep the read
    positions of both copies in sync; without it the schedulers could
    invalidate the premise by misaligning the inputs, which satisfies the
    implication vacuously.
    """
    body = reduce(And, (_ni(), _fair("p1"), _fair("p2"), Globally(_same(r, "p1", "p2"))))
    return HyperFormula(_copies(2, _SCHED, sys_stut), body)


def expand_ahltl(n: int, body: Ltl, sys_stut: str) -> HyperFormula:
    """Trajectory-quantified matching reduced to scheduler strategies.

    A universally trace-quantified formula asking for one stuttering that
    satisfies ``body`` holds iff the scheduling agents of ``n`` stuttered
    copies can enforce ``body`` together with per-copy fairness; for bodies
    that are conjunctions of pairwise proposition matchings and per-trace
    stutter-invariant parts the reduction is exact, otherwise it is a sound
    approximation.
    """
    block = _copies(n, _SCHED, sys_stut)
    return HyperFormula(block, reduce(And, (_fair(q.var) for q in block), body))
