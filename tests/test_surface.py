"""traceprof's library surface is what its commands use.

Every function that ``traceprof`` exports is called by some command, except a
few that are kept for a stated reason, and no module-level import is unused.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import traceprof
from traceprof.cli import main

# Exported functions that no command calls, and why each is kept.
KEPT_UNCALLED = {
    "attribute_samples": "perfbench/traced.py times it as the correlate layer",
    "resolve_steps": "perfbench/traced.py times it as the steps layer",
    "busy_time": "acceptance criterion 8 checks it against a discretized oracle",
    "parse_report": "acceptance criterion 9 reads reports back with it",
}


def _commands(tmp):
    """Every command and option on small synth runs: labelled, unlabelled and a sweep of the two."""
    labelled, unlabelled = tmp / "labelled", tmp / "unlabelled"
    sweep = tmp / "sweep.json"
    sweep.write_text(json.dumps({"model": "m", "runs": ["labelled/run.json",
                                                        "unlabelled/run.json"]}))
    commands = [
        ["synth", "--seed", "1", "--noise", "0.05", "--out", labelled],
        ["synth", "--seed", "2", "--strip-step-ids", "--out", unlabelled],
        ["validate", labelled / "run.json"],
        ["analyze", unlabelled / "run.json", "--format", "json"],
        *(["analyze", labelled / "run.json", "--format", fmt, "--signal", signal]
          for fmt in ("json", "table") for signal in ("gpu_util", "cpu_avg_util", "power_sys")),
        ["analyze", labelled / "run.json", "--warmup", "1", "--idle-threshold", "0.01"],
        *(["sweep", sweep, "--format", fmt] for fmt in ("json", "table")),
        ["sweep", sweep, "--rail", "gpu", "--format", "table"],
    ]
    return [list(map(str, argv)) for argv in commands]


def test_every_exported_function_is_called_by_a_command(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in _commands(tmp_path)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), capsys.readouterr().err
    functions = {name: getattr(traceprof, name) for name in traceprof.__all__}
    uncalled = {name for name, f in functions.items()
                if inspect.isfunction(f) and f.__code__ not in called}
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
