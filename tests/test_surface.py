"""traceprof's library surface is what its commands use.

Every public module-level function of every ``traceprof`` module is called by
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
from traceprof.synth import random_spec

# Public functions that no command calls, and why each is kept.
KEPT_UNCALLED = {
    "attribute_samples": "perfbench/traced.py times it as the correlate layer",
    "resolve_steps": "perfbench/traced.py times it as the steps layer",
    "busy_time": "acceptance criterion 8 checks it against a discretized oracle",
    "parse_report": "acceptance criterion 9 reads reports back with it",
    "run": "the process entry point; tests call main in process",
}


def _public_functions():
    """Each public function defined at the top level of a public ``traceprof`` module."""
    for info in pkgutil.iter_modules(traceprof.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"traceprof.{info.name}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                yield name, value


def _commands(tmp):
    """Every command and option on small synth runs: labelled, unlabelled, from a spec, swept."""
    labelled, unlabelled = tmp / "labelled", tmp / "unlabelled"
    sweep = tmp / "sweep.json"
    sweep.write_text(json.dumps({"model": "m", "runs": ["labelled/run.json",
                                                        "unlabelled/run.json"]}))
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(to_doc(random_spec(3))))
    commands = [
        ["synth", "--seed", "1", "--noise", "0.05", "--out", labelled],
        ["synth", "--seed", "2", "--strip-step-ids", "--out", unlabelled],
        ["synth", "--spec", spec, "--out", tmp / "from_spec"],
        ["validate", labelled / "run.json"],
        ["analyze", unlabelled / "run.json", "--format", "json"],
        *(["analyze", labelled / "run.json", "--format", fmt, "--signal", signal]
          for fmt in ("json", "table") for signal in ("gpu_util", "cpu_avg_util", "power_sys")),
        ["analyze", labelled / "run.json", "--warmup", "1", "--idle-threshold", "0.01"],
        *(["sweep", sweep, "--format", fmt] for fmt in ("json", "table")),
        ["sweep", sweep, "--rail", "gpu", "--format", "table"],
    ]
    return [list(map(str, argv)) for argv in commands]


def test_every_public_function_is_called_by_a_command(tmp_path, capsys):
    commands = _commands(tmp_path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), capsys.readouterr().err
    uncalled = {name for name, f in _public_functions() if f.__code__ not in called}
    assert uncalled == set(KEPT_UNCALLED)


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
