"""Built-in property templates for information-flow and asynchronous checks.

Each builder assembles formula text and runs it through the parser, so the
grammar stays the single source of truth.  ``O``/``L``/``H`` are lists of
labelled proposition names (e.g. ``["o[0]"]``); path variables are always
``p1``, ``p2``, ... in quantifier order.

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

from typing import Sequence

from .formula import FormulaError, HyperFormula, Ltl, format_ltl, parse_formula


class TemplateError(FormulaError):
    """Raised when a template's parameters are inconsistent."""


def _conj(parts: Sequence[str]) -> str:
    if not parts:
        return "true"
    return " & ".join(parts) if len(parts) == 1 else "(" + " & ".join(parts) + ")"


def _match(props: Sequence[str], left: str, right: str, right_prefix: str = "") -> str:
    return _conj([f"({p}{{{left}}} <-> {right_prefix}{p}{{{right}}})" for p in props])


def _fair(var: str) -> str:
    return f"(G F ! stut{{{var}}})"


def expand_od(O: Sequence[str]) -> HyperFormula:
    """All traces agree on the outputs at every step."""
    if not O:
        raise TemplateError("observational determinism needs at least one output")
    return parse_formula(f"[ forall p1 . forall p2 . ] G {_match(O, 'p1', 'p2')}")


def expand_ni(O: Sequence[str], L: Sequence[str]) -> HyperFormula:
    """Equal low inputs force equal outputs."""
    if not O:
        raise TemplateError("non-interference needs at least one output")
    premise = f"G {_match(L, 'p1', 'p2')}" if L else "true"
    return parse_formula(
        f"[ forall p1 . forall p2 . ] ({premise}) -> G {_match(O, 'p1', 'p2')}"
    )


def expand_simsec(
    O: Sequence[str],
    L: Sequence[str],
    sys: str,
    sys_shift: str,
) -> HyperFormula:
    """Lock-step matching with a one-step-lookahead strategy for xi_N.

    The second copy runs one position late, so its references carry a next
    operator; the nondeterminism player of the late copy must reproduce the
    reference outputs whenever the low inputs match.
    """
    if not O:
        raise TemplateError("simulation security needs at least one output")
    premise = f"G {_match(L, 'p1', 'p2', 'X ')}" if L else "true"
    return parse_formula(
        f"[ forall p1 @ {sys} . <<xi_N>> p2 @ {sys_shift} . ] "
        f"({premise}) -> G {_match(O, 'p1', 'p2', 'X ')}"
    )


def expand_sgni(
    O: Sequence[str],
    L: Sequence[str],
    H: Sequence[str],
    k: int,
    sys: str,
    sys_shift_k: str,
) -> HyperFormula:
    """Existence of a matching trace built with a k-step view on the future.

    The witness copy is shifted by k, so every reference to it carries k
    next operators; it must agree with the first trace on high inputs and
    with the second on outputs and low inputs.
    """
    if k < 1:
        raise TemplateError("lookahead must be at least 1")
    if not O:
        raise TemplateError("generalized non-interference needs at least one output")
    x = f"X[{k}] " if k > 1 else "X "
    high = f"G {_match(H, 'p1', 'p3', x)}" if H else "true"
    low_out = _conj(
        [f"({p}{{p2}} <-> {x}{p}{{p3}})" for p in O]
        + [f"({p}{{p2}} <-> {x}{p}{{p3}})" for p in L]
    )
    return parse_formula(
        f"[ forall p1 @ {sys} . forall p2 @ {sys} . exists p3 @ {sys_shift_k} . ] "
        f"({high}) & G {low_out}"
    )


def expand_od_async(O: Sequence[str], sys_stut: str) -> HyperFormula:
    """Schedulers may stutter either copy, fairly, to align the outputs."""
    if not O:
        raise TemplateError("observational determinism needs at least one output")
    return parse_formula(
        f"[ <<sched>> p1 @ {sys_stut} . <<sched>> p2 @ {sys_stut} . ] "
        f"{_fair('p1')} & {_fair('p2')} & G {_match(O, 'p1', 'p2')}"
    )


def expand_ni_async(
    O: Sequence[str], L: Sequence[str], r: str, sys_stut: str
) -> HyperFormula:
    """Asynchronous non-interference with aligned read positions.

    The alignment proposition ``r`` forces the schedulers to keep the read
    positions of both copies in sync; without it the schedulers could
    invalidate the premise by misaligning the inputs, which satisfies the
    implication vacuously.
    """
    if not O:
        raise TemplateError("non-interference needs at least one output")
    premise = f"G {_match(L, 'p1', 'p2')}" if L else "true"
    implication = f"(({premise}) -> G {_match(O, 'p1', 'p2')})"
    return parse_formula(
        f"[ <<sched>> p1 @ {sys_stut} . <<sched>> p2 @ {sys_stut} . ] "
        f"{implication} & {_fair('p1')} & {_fair('p2')} & G {_match([r], 'p1', 'p2')}"
    )


def expand_ahltl(n: int, body: Ltl, sys_stut: str) -> HyperFormula:
    """Trajectory-quantified matching reduced to scheduler strategies.

    A universally trace-quantified formula asking for one stuttering that
    satisfies ``body`` holds iff the scheduling agents of ``n`` stuttered
    copies can enforce ``body`` together with per-copy fairness; for bodies
    that are conjunctions of pairwise proposition matchings and per-trace
    stutter-invariant parts the reduction is exact, otherwise it is a sound
    approximation.
    """
    if n < 1:
        raise TemplateError("at least one copy is required")
    block = " ".join(f"<<sched>> p{i + 1} @ {sys_stut} ." for i in range(n))
    fair = " & ".join(_fair(f"p{i + 1}") for i in range(n))
    return parse_formula(f"[ {block} ] ({format_ltl(body)}) & {fair}")
