"""traceprof's library surface is what its commands use.

Every public module-level function of every ``traceprof`` module, and every
public or special method and property of its public classes, is called by
some command, except a few that are kept for a stated reason, and no
module-level import is unused.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import traceprof
from oracles import to_doc
from traceprof.cli import main
from traceprof.synth import random_spec, write_run

# Public functions and methods that no command calls, and why each is kept.
KEPT_UNCALLED = {
    "attribute_samples": "perfbench/traced.py times it as the correlate layer",
    "resolve_steps": "perfbench/traced.py times it as the steps layer",
    "busy_time": "acceptance criterion 8 checks it against a discretized oracle",
    "run": "the process entry point; tests call main in process",
    "_Table.__setattr__": "the no-assignment rule: only an assignment to a table calls it",
}


def _public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _defined_in(value, module_name):
    return getattr(value, "__module__", None) == module_name


def _methods(cls):
    """(Class.name, function) of each public or special method and property that ``cls``
    has from a ``traceprof`` class, base classes included. Generated record methods
    (a NamedTuple's ``__new__``) are not written in a module, so they are left out."""
    for owner in cls.__mro__:
        if not owner.__module__.startswith("traceprof."):
            continue
        for name, value in vars(owner).items():
            value = getattr(value, "fget", getattr(value, "__func__", value))
            if _public(name) and inspect.isfunction(value) and _defined_in(value, owner.__module__):
                yield f"{owner.__qualname__}.{name}", value


def _public_functions():
    """Each public function defined at the top level of a public ``traceprof`` module, and
    each method of its public classes."""
    for info in pkgutil.iter_modules(traceprof.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"traceprof.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or not _defined_in(value, module.__name__):
                continue
            if inspect.isfunction(value):
                yield name, value
            elif inspect.isclass(value):
                yield from _methods(value)


def _reversed_lines(path, keep=0):
    """Reverse the lines of a file after its first ``keep``."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep] + lines[keep:][::-1]))


def _commands(tmp):
    """(argv, exit code) of every command and option on small synth runs: labelled,
    unlabelled, from a spec, swept, with its op trace and telemetry written in reverse
    time order, and with an op that ends where it starts."""
    labelled, unlabelled = tmp / "labelled", tmp / "unlabelled"
    sweep = tmp / "sweep.json"
    sweep.write_text(json.dumps({"model": "m", "runs": ["labelled/run.json",
                                                        "unlabelled/run.json"]}))
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(to_doc(random_spec(3))))
    reversed_run = write_run(random_spec(4), tmp / "reversed")
    _reversed_lines(reversed_run.parent / "ops.jsonl")
    _reversed_lines(reversed_run.parent / "telemetry.csv", keep=1)
    invalid_run = write_run(random_spec(5), tmp / "invalid")
    with open(invalid_run.parent / "ops.jsonl", "a") as f:
        f.write('{"op": "x", "device": "GPU", "start_us": 5, "end_us": 5}\n')
    commands = [
        ["synth", "--seed", "1", "--noise", "0.05", "--out", labelled],
        ["synth", "--seed", "2", "--strip-step-ids", "--out", unlabelled],
        ["synth", "--spec", spec, "--out", tmp / "from_spec"],
        ["validate", labelled / "run.json"],
        ["analyze", unlabelled / "run.json", "--format", "json"],
        ["analyze", reversed_run, "--format", "json"],
        *(["analyze", labelled / "run.json", "--format", fmt, "--signal", signal]
          for fmt in ("json", "table") for signal in ("gpu_util", "cpu_avg_util", "power_sys")),
        ["analyze", labelled / "run.json", "--warmup", "1", "--idle-threshold", "0.01"],
        *(["sweep", sweep, "--format", fmt] for fmt in ("json", "table")),
        ["sweep", sweep, "--rail", "gpu", "--format", "table"],
    ]
    return [(list(map(str, argv)), 0) for argv in commands] + [(["validate", str(invalid_run)], 1)]


def test_every_public_function_is_called_by_a_command(tmp_path, capsys):
    commands = _commands(tmp_path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv, _ in commands]
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in commands], capsys.readouterr().err
    uncalled = {name for name, f in _public_functions() if f.__code__ not in called}
    assert uncalled == set(KEPT_UNCALLED)


def test_benchmark_only_entries_are_named_by_the_benchmark():
    # Reads the benchmark's source and never edits it: an entry kept for the benchmark
    # is stale once the benchmark stops naming it.
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = [name for name, reason in KEPT_UNCALLED.items() if "perfbench/traced.py" in reason]
    assert set(kept) <= named, sorted(set(kept) - named)


def test_no_module_level_import_is_unused():
    for path in sorted(Path(traceprof.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} does not use {sorted(imported - used)}"
