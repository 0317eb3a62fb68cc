"""End-to-end driver: load programs, build the game, solve, report.

Exit codes: 0 satisfied, 1 violated, 2 usage or configuration error,
3 resource cap exceeded.  A violation is a result, not a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from . import arena, imp, ltl2dpa, props, solver, structures
from .formula import (
    FormulaError,
    HyperFormula,
    collect_atoms,
    format_hyper,
    parse_formula,
    parse_ltl,
    to_nnf,  # not called: ltl_to_dpa normalizes; perfbench/spans.py wraps cli.to_nnf
    validate_fragment,
)
from .imp import ProgramError, StateCapError
from .record import field, record

EXIT_SATISFIED = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class ConfigError(Exception):
    pass


# What ends a check early: bad input (exit 2), or a resource cap or exhausted
# memory (exit 3).
USAGE_ERRORS = (
    ConfigError,
    FormulaError,
    ProgramError,
    arena.ArenaError,
    structures.TransformError,
)
CAP_ERRORS = (StateCapError, arena.VertexCapError, ltl2dpa.AutomatonCapError, MemoryError)


def _message(e: Exception) -> str:
    """The one-line message of an error that ends a check (a MemoryError often has none)."""
    return str(e) or "out of memory"


@record
class SystemSpec:
    system_id: str
    program_path: str
    transforms: tuple = ()  # entries ("stutter",) or ("shift", k)


@record
class CheckConfig:
    systems: list[SystemSpec]
    formula_file: Optional[str] = None
    prop: Optional[str] = None
    widths: dict = field(factory=dict)
    cap_states: int = 10**6
    cap_vertices: int = 10**7
    dump_dpa: Optional[str] = None
    dump_game: Optional[str] = None
    dump_sys: dict = field(factory=dict)
    report_path: Optional[str] = None


@record
class Report:
    verdict: str
    formula: str
    sizes: dict
    timings_ms: dict
    strategy_vertices: int = 0
    peak_rss_mb: float = 0.0  # of the whole process so far; not a size, so not in ``sizes``

    def record(self) -> str:
        lines = [f"verdict {self.verdict}", f"formula {self.formula}"]
        for key in sorted(self.sizes):
            lines.append(f"{key} {self.sizes[key]}")
        for key in ("build", "translate", "arena", "solve"):
            lines.append(f"time.{key}_ms {self.timings_ms[key]:.1f}")
        lines.append(f"mem.peak_rss_mb {self.peak_rss_mb:.1f}")
        lines.append(f"strategy.vertices {self.strategy_vertices}")
        return "\n".join(lines) + "\n"


def _int(value: object, what: str) -> int:
    """``value`` read as an integer: a string of one, or an ``int`` that is no ``bool``."""
    try:
        if isinstance(value, str) or type(value) is int:
            return int(value)
    except ValueError:
        pass
    raise ConfigError(f"{what} expects an integer, got {value!r}")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {what} {str(path)!r}: {e}") from e


def _write_text(path, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot write {what} {str(path)!r}: {e}") from e


def _read_json(path, what: str):
    def unique(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{what} {str(path)!r} repeats the key {json.dumps(key)}")
            obj[key] = value
        return obj

    try:
        return json.loads(_read_text(path, what), object_pairs_hook=unique)
    except ValueError as e:  # malformed JSON, or a number too long for ``int``
        raise ConfigError(f"cannot parse {what} {str(path)!r}: {e}") from e


@contextmanager
def _nesting_limit(what: str):
    """Report a ``what`` nested beyond Python's recursion limit as bad input."""
    try:
        yield
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise ConfigError(f"{what} is nested too deeply (Python's recursion limit is {limit})") from None


def _parse_transform(text: str, where: str = "") -> tuple:
    """``stutter`` or ``shift=k``, from ``--system`` or a manifest's ``transforms``."""
    if text == "stutter":
        return ("stutter",)
    if isinstance(text, str) and text.startswith("shift="):
        return ("shift", _shift_distance(("shift", text.split("=", 1)[1]), where))
    raise ConfigError(f"{where}unknown transform {text!r}")


def _shift_distance(t, where: str = "") -> Optional[int]:
    """The ``k`` of the transform ``("shift", k)``, read by :func:`_int`; None for ``("stutter",)``.

    A distance below 1, or any other transform, is a ConfigError.
    """
    if t == ("stutter",):
        return None
    if type(t) is tuple and len(t) == 2 and t[0] == "shift":
        k = _int(t[1], f"{where}shift")
        if k < 1:
            raise ConfigError(f"{where}shift needs a distance of at least 1, got {k}")
        return k
    raise ConfigError(f"{where}unknown transform {t!r}")


def _transform(g: structures.MSCGS, t: tuple, cap: int) -> structures.MSCGS:
    """``g`` under the transform ``t``; its states count against ``cap`` before any is built.

    The stuttered twin has ``2n`` states, a frozen copy of each, and ``shift=k``
    adds ``k`` to the ``n`` states of ``g``.
    """
    k = _shift_distance(t)
    if (2 * g.n_states if k is None else g.n_states + k) > cap:
        raise StateCapError(f"state cap of {cap} exceeded")
    if k is None:
        return structures.stutter_transform(g)
    return structures.shift_transform(g, k)


def _load_system(spec: SystemSpec, widths: dict, cap_states: int, observe) -> structures.MSCGS:
    """The program of ``spec`` built for the propositions ``observe``, under its transforms."""
    text = _read_text(spec.program_path, "program")
    with _nesting_limit(f"program {spec.program_path!r}"):
        declared, program = imp.parse_program(text, width_overrides=widths or None)
        g = imp.build_cgs(program, declared, cap=cap_states, name=spec.system_id, observe=observe)
    for t in spec.transforms:
        g = _transform(g, t, cap_states)
    return g


def _builtin(prop: str, spec: SystemSpec, body_file: Optional[str], cap: int) -> tuple[HyperFormula, dict]:
    """The formula of builtin ``prop`` over ``spec``'s system, and ``{twin id: transform}``.

    Every parameter is checked here, before any program is read.  Each twin
    is the built system of ``spec`` under its transform; the asynchronous
    builtins bind ``spec``'s own id when its system is stuttered already.
    """
    name, colon, param = prop.partition(":")
    base = spec.system_id
    if name not in ("od", "ni", "simsec", "sgni", "od-async", "ni-async", "ahltl"):
        raise ConfigError(f"unknown builtin property {prop!r}")
    if colon and name in ("od", "ni", "simsec", "od-async"):
        raise ConfigError(f"builtin property {name!r} takes no parameter, got {prop!r}")
    if body_file is not None and name != "ahltl":
        raise ConfigError(f"--formula goes with --prop ahltl:n only, not with {prop!r}")
    if name == "od":
        return props.expand_od(), {}
    if name == "ni":
        return props.expand_ni(), {}
    if name in ("simsec", "sgni"):
        k = _int(param, "sgni:k") if colon else 1 if name == "simsec" else 3
        if k < 1:
            raise ConfigError(f"sgni:k needs a shift distance of at least 1, got {k}")
        if k >= cap:  # the shifted twin has more than k states
            raise StateCapError(f"state cap of {cap} exceeded")
        limit = sys.getrecursionlimit()
        if k > limit:  # too deep to check, so refused before its towers of X are built
            raise ConfigError(f"sgni:k lookahead {k} is above Python's recursion limit of {limit}")
        twin = f"{base}_shift{k}"
        formula = props.expand_simsec(base, twin) if name == "simsec" else props.expand_sgni(k, base, twin)
        return formula, {twin: ("shift", k)}
    # a program has no ``sched`` agent, so only its ``stutter`` transform adds one
    twin = base if ("stutter",) in spec.transforms else f"{base}_stut"
    twins = {} if twin == base else {twin: ("stutter",)}
    if name == "od-async":
        return props.expand_od_async(twin), twins
    if name == "ni-async":
        if colon and not param:
            raise ConfigError("ni-async:r expects an atomic proposition, got ''")
        return props.expand_ni_async(param if colon else "r[0]", twin), twins
    if body_file is None:
        raise ConfigError("--prop ahltl:n needs --formula with the quantifier-free body")
    n = _int(param, "ahltl:n") if colon else 2
    if n < 1:
        raise ConfigError(f"ahltl:n needs at least one copy, got {n}")
    body = parse_ltl(_read_text(body_file, "formula").strip())
    return props.expand_ahltl(n, body, twin), twins


def _formula_reads(formula: HyperFormula, specs: list[SystemSpec], twins: dict) -> dict[str, set]:
    """Per system id, each of ``specs`` included, the propositions of the atoms bound to it.

    A twin's atoms count for its base, the one system of ``specs``.  Each
    program is built for its entry, and each bound system, or twin of it,
    is quotiented by that entry.
    """
    default = specs[0].system_id if len(specs) == 1 else None
    system_of = {q.var: default if q.system in twins else q.system or default for q in formula.block}
    reads: dict[str, set] = {spec.system_id: set() for spec in specs}
    for prop, var in collect_atoms(formula.body):
        reads.setdefault(system_of.get(var), set()).add(prop)
    return reads


def _peak_rss_mb() -> float:
    """The process's peak resident set size (``ru_maxrss`` is in KiB, on macOS in bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def run(config: CheckConfig) -> Report:
    """Check one formula against its bound systems and report the verdict."""
    with _nesting_limit("formula"):
        return _run(config)


def _run(config: CheckConfig) -> Report:
    specs = config.systems
    if not specs:
        raise ConfigError("at least one --system binding is required")
    if not isinstance(specs, (list, tuple)) or not all(isinstance(s, SystemSpec) for s in specs):
        raise ConfigError(f"--system expects a list of SystemSpec, got {specs!r}")
    if not isinstance(config.prop, (str, type(None))):
        raise ConfigError(f"--prop expects a string, got {config.prop!r}")
    for what, value in (("--width", config.widths), ("--dump-sys", config.dump_sys)):
        if not isinstance(value, dict):
            raise ConfigError(f"{what} expects a mapping, got {value!r}")
    paths = [(f"--dump-sys {sid}", path) for sid, path in config.dump_sys.items()]
    for i, spec in enumerate(specs):
        if not isinstance(spec.transforms, (tuple, list)):
            what = f"transforms of system {spec.system_id!r}"
            raise ConfigError(f"{what} expect a tuple, got {spec.transforms!r}")
        for t in spec.transforms:
            _shift_distance(t)
        if any(s.system_id == spec.system_id for s in specs[:i]):
            raise ConfigError(f"system {spec.system_id!r} bound twice")
        paths.append((f"program of system {spec.system_id!r}", spec.program_path))
    files = {"--formula": config.formula_file, "--dump-dpa": config.dump_dpa}
    files.update({"--dump-game": config.dump_game, "--report": config.report_path})
    paths += [(flag, path) for flag, path in files.items() if path is not None]
    for what, path in paths:
        if not isinstance(path, (str, os.PathLike)):
            raise ConfigError(f"{what} expects a path (str or os.PathLike), got {path!r}")
    cap_states = _int(config.cap_states, "--cap-states")
    cap_vertices = _int(config.cap_vertices, "--cap-vertices")
    for what, cap in (("--cap-states", cap_states), ("--cap-vertices", cap_vertices)):
        if cap < 1:
            raise ConfigError(f"{what} must be at least 1, got {cap}")
    widths = {k: _int(v, f"--width {k}") for k, v in config.widths.items()}

    t0 = time.perf_counter()
    twins: dict = {}
    if config.prop is not None:
        if len(specs) != 1:
            raise ConfigError("builtin properties take exactly one --system binding")
        formula, twins = _builtin(config.prop, specs[0], config.formula_file, cap_states)
    elif config.formula_file is not None:
        formula = parse_formula(_read_text(config.formula_file, "formula").strip())
    else:
        raise ConfigError("either --formula or --prop is required")

    # each program is built once, for the propositions its quantifiers and its twins' read
    observe = _formula_reads(formula, specs, twins)
    systems = {s.system_id: _load_system(s, widths, cap_states, observe[s.system_id]) for s in specs}
    base = specs[0].system_id  # of every twin
    for sid, t in twins.items():
        systems[sid] = _transform(systems[base], t, cap_states)

    for sid in sorted(config.dump_sys):
        if sid not in systems:
            raise ConfigError(f"--dump-sys names unbound system {sid!r}")
    info = validate_fragment(formula, systems)
    bound = {
        sid: structures.quotient(systems[sid], observe.get(base if sid in twins else sid, ()))
        for sid in {rq.system for rq in info.quantifiers}
    }
    t_build = time.perf_counter()

    dpa = ltl2dpa.ltl_to_dpa(formula.body, info.atoms, cap=cap_states)
    t_translate = time.perf_counter()

    quants = [(rq.coalition, bound[rq.system]) for rq in info.quantifiers]
    built = arena.build_game(quants, dpa, info.atoms, info.atom_copy, cap=cap_vertices)
    t_arena = time.perf_counter()

    solver_stats: dict = {}
    regions, s0, s1 = solver.zielonka(built.game, solver_stats)
    t_solve = time.perf_counter()

    won = built.game.initial in regions.w0
    satisfied = won != formula.negated
    winner_strategy = s0 if won else s1

    sizes = {
        "apa.states": dpa.apa_states,
        "nba.states": dpa.nba_states,
        "dpa.determinized": int(dpa.safra_steps > 0),
        "dpa.safra_steps": dpa.safra_steps,
        "dpa.states": dpa.n_states,
        "dpa.colors": dpa.n_colors,
        "game.vertices": built.game.n_vertices,
        "game.edges": built.game.n_edges,
        "game.automaton_vertices": built.n_automaton_vertices,
        "game.sink_vertices": built.n_sink_vertices,
        "game.swap_quotient": int(built.swap_quotient),
        "solver.calls": solver_stats["calls"],
        "solver.attractor_edges": solver_stats["attractor_edges"],
    }
    for sid in sorted(systems):
        sizes[f"system.{sid}.states"] = systems[sid].n_states
    for sid in sorted(bound):
        sizes[f"system.{sid}.classes"] = bound[sid].n_states
    report = Report(
        verdict="satisfied" if satisfied else "violated",
        formula=format_hyper(formula),
        sizes=sizes,
        timings_ms={
            "build": (t_build - t0) * 1000,
            "translate": (t_translate - t_build) * 1000,
            "arena": (t_arena - t_translate) * 1000,
            "solve": (t_solve - t_arena) * 1000,
        },
        strategy_vertices=len(winner_strategy),
        peak_rss_mb=_peak_rss_mb(),
    )

    if config.dump_dpa:
        _write_text(config.dump_dpa, ltl2dpa.export_dot(dpa), "--dump-dpa")
    if config.dump_game:
        _write_text(config.dump_game, arena.export_dot(built, strategy=winner_strategy), "--dump-game")
    for sid, path in sorted(config.dump_sys.items()):
        _write_text(path, structures.export_dot(systems[sid]), "--dump-sys")
    if config.report_path:
        _write_text(config.report_path, report.record(), "--report")
    return report


# ---------------------------------------------------------------------------
# Suites


def bundled_asset(name: str) -> Path:
    return Path(str(resources.files("hyperatl").joinpath("assets", name)))


def _resolve_manifest(path_or_name: str) -> Path:
    p = Path(path_or_name)
    if p.exists():
        return p
    candidate = bundled_asset(f"{path_or_name}.json")
    if candidate.exists():
        return candidate
    raise ConfigError(f"manifest {path_or_name!r} not found")


@record
class SuiteRow:
    name: str
    verdict: str  # "satisfied", "violated", or "error"/"cap" when the check ended early
    expected: Optional[str]
    ok: bool
    millis: float
    sizes: dict
    message: str = ""  # why an "error" or "cap" row ended


def _json_of(kind: type, value, what: str):
    """``value`` if it is a ``kind`` (dict or list); a ConfigError otherwise."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ConfigError(f"{what} must be a JSON {name}, got {json.dumps(value)[:40]}")
    return value


def _known_keys(obj: dict, known: tuple, what: str) -> dict:
    """``obj`` if every key of it is in ``known``; a ConfigError naming the first other key."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{what} has an unknown key {json.dumps(key)}")
    return obj


def _suite_configs(manifest_path: Path, data) -> list[tuple]:
    """(name, config, expected verdict) per entry; a malformed manifest or unknown key is a ConfigError."""
    configs = []
    names: dict = {}  # name -> index of its entry
    manifest = _known_keys(_json_of(dict, data, "manifest"), ("entries",), "manifest")
    for i, entry in enumerate(_json_of(list, manifest.get("entries"), "manifest entries")):
        keys = ("name", "program", "prop", "widths", "transforms", "expect")
        _known_keys(_json_of(dict, entry, f"manifest entry {i}"), keys, f"manifest entry {i}")
        for key in ("name", "program", "prop"):
            if not isinstance(entry.get(key), str):
                raise ConfigError(f"manifest entry {i} needs a string {key!r}")
        name = entry["name"]
        if name in names:
            raise ConfigError(f"manifest entry {i} repeats the name {name!r} of entry {names[name]}")
        names[name] = i
        program = manifest_path.parent / entry["program"]
        transforms = _json_of(list, entry.get("transforms", []), f"{name}: transforms")
        transforms = tuple(_parse_transform(t, f"{name}: ") for t in transforms)
        widths = _json_of(dict, entry.get("widths", {}), f"{name}: widths")
        widths = {k: _int(v, f"{name}: width of {k}") for k, v in widths.items()}
        config = CheckConfig(
            systems=[SystemSpec("G", str(program), transforms)],
            prop=entry["prop"],
            widths=widths,
        )
        expect = entry.get("expect")
        if expect not in (None, "satisfied", "violated"):
            got = json.dumps(expect)[:40]
            raise ConfigError(f"{name}: expect must be 'satisfied' or 'violated', got {got}")
        configs.append((name, config, expect))
    return configs


def run_suite(manifest: str) -> tuple[list[SuiteRow], bool]:
    """Run every manifest entry; flags mismatches against the entries' expected verdicts.

    A row that ends in bad input or a resource cap is recorded as an
    ``error`` or ``cap`` row, which is never ok, and the suite goes on.
    """
    manifest_path = _resolve_manifest(manifest)
    configs = _suite_configs(manifest_path, _read_json(manifest_path, "manifest"))
    rows: list[SuiteRow] = []
    for name, config, expected in configs:
        start = time.perf_counter()
        try:
            report = run(config)
        except (USAGE_ERRORS + CAP_ERRORS) as e:
            verdict = "cap" if isinstance(e, CAP_ERRORS) else "error"
            millis = (time.perf_counter() - start) * 1000
            rows.append(SuiteRow(name, verdict, expected, False, millis, {}, _message(e)))
            continue
        millis = (time.perf_counter() - start) * 1000
        ok = expected is None or report.verdict == expected
        rows.append(SuiteRow(name, report.verdict, expected, ok, millis, report.sizes))
    return rows, all(r.ok for r in rows)


def suite_record(rows: list[SuiteRow]) -> str:
    """The rows as a JSON array, one object per row (``suite --report``)."""
    fields = [
        {
            "name": r.name,
            "verdict": r.verdict,
            "expected": r.expected,
            "ok": r.ok,
            "ms": round(r.millis, 1),
            "sizes": r.sizes,
            "message": r.message,
        }
        for r in rows
    ]
    return json.dumps(fields, indent=1) + "\n"


def format_suite(rows: list[SuiteRow]) -> str:
    width = max([len(r.name) for r in rows] + [4])
    lines = [f"{'name'.ljust(width)}  verdict    expected   ok    ms"]
    for r in rows:
        status = "ok" if r.ok else ("MISMATCH" if not r.message else r.verdict.upper())
        line = (
            f"{r.name.ljust(width)}  {r.verdict.ljust(9)}  "
            f"{(r.expected or '-').ljust(9)}  {status:4}  {r.millis:8.1f}"
        )
        lines.append(f"{line}  {r.message}" if r.message else line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command line


def _key_value(text: str, flag: str, shape: str) -> tuple[str, str]:
    """``text`` split at its first ``=``; without one, a ConfigError: ``flag`` expects ``shape``."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigError(f"{flag} expects {shape}, got {text!r}")
    return key, value


def _parse_system(text: str) -> SystemSpec:
    system_id, rest = _key_value(text, "--system", "id=path[,stutter][,shift=k]")
    system_id = system_id.strip()
    if not system_id:
        raise ConfigError(f"--system expects a non-empty id before '=', got {text!r}")
    path, *transforms = rest.split(",")
    return SystemSpec(system_id, path, tuple(_parse_transform(t) for t in transforms))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperatl",
        description="model checker for strategic hyperproperties of bit-vector programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check one formula against bound systems")
    check.add_argument("--formula", help="formula file (or ahltl body)")
    check.add_argument("--prop", help="builtin property name[:params]")
    check.add_argument("--system", action="append", default=[], metavar="ID=PROG[,T...]")
    check.add_argument("--width", action="append", default=[], metavar="VAR=N")
    check.add_argument("--cap-states", type=int, default=10**6)
    check.add_argument("--cap-vertices", type=int, default=10**7)
    check.add_argument("--dump-dpa", metavar="FILE")
    check.add_argument("--dump-game", metavar="FILE")
    check.add_argument("--dump-sys", action="append", default=[], metavar="ID=FILE")
    check.add_argument("--report", metavar="FILE")

    suite = sub.add_parser("suite", help="run a manifest of checks")
    suite.add_argument("--manifest", required=True)
    suite.add_argument("--report", metavar="FILE")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            widths = dict(_key_value(w, "--width", "VAR=N") for w in args.width)
            dump_sys = dict(_key_value(d, "--dump-sys", "ID=FILE") for d in args.dump_sys)
            config = CheckConfig(
                systems=[_parse_system(s) for s in args.system],
                formula_file=args.formula,
                prop=args.prop,
                widths=widths,
                cap_states=args.cap_states,
                cap_vertices=args.cap_vertices,
                dump_dpa=args.dump_dpa,
                dump_game=args.dump_game,
                dump_sys=dump_sys,
                report_path=args.report,
            )
            report = run(config)
            print(report.record(), end="")
            return EXIT_SATISFIED if report.verdict == "satisfied" else EXIT_VIOLATED
        rows, ok = run_suite(args.manifest)
        if args.report:
            _write_text(args.report, suite_record(rows), "--report")
        print(format_suite(rows))
        return EXIT_SATISFIED if ok else EXIT_VIOLATED
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CAP_ERRORS as e:
        print(f"resource limit: {_message(e)}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
