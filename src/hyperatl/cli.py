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


def _count(value: object, what: str, floor: str = "must be at least 1") -> int:
    """``value`` read as an integer of at least 1: a string of one, or an ``int`` that is no ``bool``."""
    try:
        n = int(value) if isinstance(value, str) or type(value) is int else None
    except ValueError:
        n = None
    if n is None:
        raise ConfigError(f"{what} expects an integer, got {value!r}")
    if n < 1:
        raise ConfigError(f"{what} {floor}, got {n}")
    return n


def _transform_of(t) -> tuple:
    """A transform, or its text ``stutter`` or ``shift=k``, as ``("stutter",)`` or ``("shift", k)``."""
    if isinstance(t, str) and t.startswith("shift="):
        t = ("shift", t[6:])
    if t in ("stutter", ("stutter",)):
        return ("stutter",)
    if type(t) is tuple and len(t) == 2 and t[0] == "shift":
        return ("shift", _count(t[1], "shift", "needs a distance of at least 1"))
    raise ConfigError(f"unknown transform {t!r}")


def _transform(g: structures.MSCGS, t: tuple, cap: int) -> structures.MSCGS:
    """``g`` under the transform ``t``; its states count against ``cap`` before any is built.

    The stuttered twin has ``2n`` states, a frozen copy of each, and ``shift=k``
    adds ``k`` to the ``n`` states of ``g``.
    """
    stutter = t == ("stutter",)
    if (2 * g.n_states if stutter else g.n_states + t[1]) > cap:
        raise StateCapError(f"state cap of {cap} exceeded")
    return structures.stutter_transform(g) if stutter else structures.shift_transform(g, t[1])


def _load_system(spec: SystemSpec, widths: dict, cap_states: int, observe) -> structures.MSCGS:
    """The program of ``spec`` built for the propositions ``observe``, under its transforms."""
    text = _read_text(spec.program_path, "program")
    with _nesting_limit(f"program {spec.program_path!r}"):
        declared, program = imp.parse_program(text, width_overrides=widths or None)
        g = imp.build_cgs(program, declared, cap=cap_states, name=spec.system_id, observe=observe)
    for t in spec.transforms:
        g = _transform(g, t, cap_states)
    return g


def _builtin_plan(prop: str, spec: SystemSpec, body_file: Optional[str]) -> tuple:
    """``prop`` over ``spec``'s system read as ``(name, parameter, {twin id: transform})``.

    The twin of ``simsec`` and ``sgni:k`` is the system shifted by ``k``; the
    asynchronous builtins' twin is the system stuttered, unless it is already.
    """
    name, colon, param = prop.partition(":")
    if name not in ("od", "ni", "simsec", "sgni", "od-async", "ni-async", "ahltl"):
        raise ConfigError(f"unknown builtin property {prop!r}")
    if colon and name in ("od", "ni", "simsec", "od-async"):
        raise ConfigError(f"builtin property {name!r} takes no parameter, got {prop!r}")
    if body_file is not None and name != "ahltl":
        raise ConfigError(f"--formula goes with --prop ahltl:n only, not with {prop!r}")
    if body_file is None and name == "ahltl":
        raise ConfigError("--prop ahltl:n needs --formula with the quantifier-free body")
    base = spec.system_id
    if name in ("od", "ni"):
        return name, None, {}
    if name in ("simsec", "sgni"):
        default = 1 if name == "simsec" else 3
        k = _count(param, "sgni:k", "needs a shift distance of at least 1") if colon else default
        return name, k, {f"{base}_shift{k}": ("shift", k)}
    if name == "ahltl":
        param = _count(param, "ahltl:n", "needs at least one copy") if colon else 2
    elif colon and not param:
        raise ConfigError("ni-async:r expects an atomic proposition, got ''")
    # a program has no ``sched`` agent, so only its ``stutter`` transform adds one
    twins = {} if ("stutter",) in spec.transforms else {f"{base}_stut": ("stutter",)}
    return name, param or "r[0]", twins  # r[0]: the alignment ni-async reads by default


def _builtin(builtin: tuple, base: str, body_file: Optional[str], cap: int) -> HyperFormula:
    """The formula of the planned ``builtin`` over the system ``base``.

    Its twin is the one system of the plan's twins, or else ``base``.  An
    ``sgni:k`` lookahead is held to the state cap, then to the recursion limit.
    """
    name, param, twins = builtin
    twin = next(iter(twins), base)
    if name in ("simsec", "sgni"):
        if param >= cap:  # the shifted twin has more than k states
            raise StateCapError(f"state cap of {cap} exceeded")
        limit = sys.getrecursionlimit()
        if param > limit:  # too deep to check, so refused before its towers of X are built
            raise ConfigError(f"sgni:k lookahead {param} is above Python's recursion limit of {limit}")
        return props.expand_simsec(base, twin) if name == "simsec" else props.expand_sgni(param, base, twin)
    if name == "ahltl":
        return props.expand_ahltl(param, parse_ltl(_read_text(body_file, "formula").strip()), twin)
    if name == "ni-async":
        return props.expand_ni_async(param, twin)
    if name == "od-async":
        return props.expand_od_async(twin)
    return props.expand_od() if name == "od" else props.expand_ni()


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


def _plan(config: CheckConfig) -> tuple[CheckConfig, Optional[tuple]]:
    """``config`` checked, and its builtin property read, before any file is read.

    Every ConfigError its values can cause is raised here, but for an ``sgni:k``
    above the recursion limit, which :func:`_builtin` refuses after the state
    cap; no cap is raised here.  The checked config, a ``type(config)``, holds
    ints and transform tuples; the builtin is None for a formula file.
    """
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
    systems: list[SystemSpec] = []
    for spec in specs:
        sid, transforms = spec.system_id, spec.transforms
        if not isinstance(sid, str) or not sid:
            raise ConfigError(f"--system expects a non-empty id before '=', got {sid!r}")
        if not isinstance(transforms, (tuple, list)):
            raise ConfigError(f"transforms of system {sid!r} expect a tuple, got {transforms!r}")
        if any(s.system_id == sid for s in systems):
            raise ConfigError(f"system {sid!r} bound twice")
        systems.append(SystemSpec(sid, spec.program_path, tuple(map(_transform_of, transforms))))
    paths = [(f"--dump-sys {sid}", path) for sid, path in config.dump_sys.items()]
    paths += [(f"program of system {s.system_id!r}", s.program_path) for s in systems]
    files = {"--formula": config.formula_file, "--dump-dpa": config.dump_dpa}
    files.update({"--dump-game": config.dump_game, "--report": config.report_path})
    paths += [(flag, path) for flag, path in files.items() if path is not None]
    for what, path in paths:
        if not isinstance(path, (str, os.PathLike)):
            raise ConfigError(f"{what} expects a path (str or os.PathLike), got {path!r}")
    cap_states = _count(config.cap_states, "--cap-states")
    cap_vertices = _count(config.cap_vertices, "--cap-vertices")
    widths = {k: _count(v, f"--width {k}") for k, v in config.widths.items()}
    builtin = None
    if config.prop is not None:
        if len(systems) != 1:
            raise ConfigError("builtin properties take exactly one --system binding")
        builtin = _builtin_plan(config.prop, systems[0], config.formula_file)
    elif config.formula_file is None:
        raise ConfigError("either --formula or --prop is required")
    bound = {s.system_id for s in systems}.union(builtin[2] if builtin else ())
    for sid in config.dump_sys:
        if sid not in bound:
            raise ConfigError(f"--dump-sys names unbound system {sid!r}")
    checked = (systems, config.formula_file, config.prop, widths, cap_states, cap_vertices, config.dump_dpa)
    return type(config)(*checked, config.dump_game, config.dump_sys, config.report_path), builtin


def run(config: CheckConfig) -> Report:
    """Check one formula against its bound systems and report the verdict."""
    return _run(*_plan(config))


@_nesting_limit("formula")
def _run(config: CheckConfig, builtin: Optional[tuple]) -> Report:
    """The check of a config and its builtin property, as :func:`_plan` returns them."""
    specs, cap = config.systems, config.cap_states
    base = specs[0].system_id  # of every twin
    twins = builtin[2] if builtin else {}
    t0 = time.perf_counter()
    if builtin is None:
        formula = parse_formula(_read_text(config.formula_file, "formula").strip())
    else:
        formula = _builtin(builtin, base, config.formula_file, cap)

    # each program is built once, for the propositions its quantifiers and its twins' read
    observe = _formula_reads(formula, specs, twins)
    systems = {s.system_id: _load_system(s, config.widths, cap, observe[s.system_id]) for s in specs}
    for sid, t in twins.items():
        systems[sid] = _transform(systems[base], t, cap)

    info = validate_fragment(formula, systems)
    bound = {
        sid: structures.quotient(systems[sid], observe.get(base if sid in twins else sid, ()))
        for sid in {rq.system for rq in info.quantifiers}
    }
    t_build = time.perf_counter()

    dpa = ltl2dpa.ltl_to_dpa(formula.body, info.atoms, cap=cap)
    t_translate = time.perf_counter()

    quants = [(rq.coalition, bound[rq.system]) for rq in info.quantifiers]
    built = arena.build_game(quants, dpa, info.atoms, info.atom_copy, cap=config.cap_vertices)
    t_arena = time.perf_counter()

    solver_stats: dict = {}
    regions, s0, s1 = solver.zielonka(built.game, solver_stats)
    t_solve = time.perf_counter()

    won = regions.winner(built.game.initial) == 0
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
        for key in ("name", "program"):
            if not isinstance(entry.get(key), str):
                raise ConfigError(f"manifest entry {i} needs a string {key!r}")
        if entry.get("prop") is None:
            # _plan would name the flags --formula and --prop, which a manifest cannot give
            raise ConfigError(f"manifest entry {i} needs a string 'prop'")
        name = entry["name"]
        if name in names:
            raise ConfigError(f"manifest entry {i} repeats the name {name!r} of entry {names[name]}")
        names[name] = i
        # checked here, as tuple() would split a string into its characters;
        # _plan checks the prop and the widths
        transforms = _json_of(list, entry.get("transforms", []), f"{name}: transforms")
        system = SystemSpec("G", str(manifest_path.parent / entry["program"]), tuple(transforms))
        config = CheckConfig(systems=[system], prop=entry.get("prop"), widths=entry.get("widths", {}))
        expect = entry.get("expect")
        if expect not in (None, "satisfied", "violated"):
            got = json.dumps(expect)[:40]
            raise ConfigError(f"{name}: expect must be 'satisfied' or 'violated', got {got}")
        configs.append((name, config, expect))
    return configs


def run_suite(manifest: str) -> tuple[list[SuiteRow], bool]:
    """Run every manifest entry; flags mismatches against the entries' expected verdicts.

    Every entry is planned before the first runs: a config error in any refuses
    the manifest.  A row that ends in bad input or a resource cap is recorded
    as an ``error`` or ``cap`` row, which is never ok, and the suite goes on.
    """
    manifest_path = _resolve_manifest(manifest)
    plans = []
    for name, config, expected in _suite_configs(manifest_path, _read_json(manifest_path, "manifest")):
        try:
            plans.append((name, _plan(config), expected))
        except ConfigError as e:
            raise ConfigError(f"{name}: {e}") from None
    rows: list[SuiteRow] = []
    for name, plan, expected in plans:
        start = time.perf_counter()
        try:
            report = _run(*plan)
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
    path, *transforms = rest.split(",")
    return SystemSpec(system_id.strip(), path, tuple(transforms))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperatl",
        description="model checker for strategic hyperproperties of bit-vector programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # dests are CheckConfig fields; a flag not given is left out, so its field's default holds
    check = sub.add_parser(
        "check", help="check one formula against bound systems", argument_default=argparse.SUPPRESS
    )
    check.add_argument("--formula", dest="formula_file", metavar="FILE", help="formula file, or ahltl body")
    check.add_argument("--prop", help="builtin property name[:params]")
    check.add_argument("--system", dest="systems", action="append", metavar="ID=PROG[,T...]")
    check.add_argument("--width", dest="widths", action="append", metavar="VAR=N")
    check.add_argument("--cap-states")
    check.add_argument("--cap-vertices")
    check.add_argument("--dump-dpa", metavar="FILE")
    check.add_argument("--dump-game", metavar="FILE")
    check.add_argument("--dump-sys", action="append", metavar="ID=FILE")
    check.add_argument("--report", dest="report_path", metavar="FILE")

    suite = sub.add_parser("suite", help="run a manifest of checks")
    suite.add_argument("--manifest", required=True)
    suite.add_argument("--report", metavar="FILE")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        if args.pop("command") == "check":
            args["systems"] = [_parse_system(s) for s in args.get("systems", ())]
            for dest, flag, shape in (("widths", "--width", "VAR=N"), ("dump_sys", "--dump-sys", "ID=FILE")):
                items, args[dest] = args.get(dest, ()), {}
                for key, value in (_key_value(item, flag, shape) for item in items):
                    if key in args[dest]:  # a repeated key is refused, not overridden
                        raise ConfigError(f"{flag} {key!r} given twice")
                    args[dest][key] = value
            report = run(CheckConfig(**args))
            print(report.record(), end="")
            return EXIT_SATISFIED if report.verdict == "satisfied" else EXIT_VIOLATED
        rows, ok = run_suite(args["manifest"])
        if args["report"]:
            _write_text(args["report"], suite_record(rows), "--report")
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
