"""The README's examples run as written and give what they show."""

import ast
import inspect
import pathlib
import re
import shlex

import mfclust
from mfclust import em
from mfclust.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return block


def test_readme_library_example_runs(capsys):
    block = library_example()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    noise = [f"noi{i:02d}" for i in range(1, 17)]
    assert namespace["m"] == 3
    assert sorted(namespace["report"].best_fit.removed_sensors) == noise
    assert capsys.readouterr().out == f"3 {noise}\n"


def test_readme_library_example_uses_what_it_imports():
    tree = ast.parse(library_example())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported and sorted(imported - loaded) == []


def command_lines() -> dict[str, list[str]]:
    """The README's command-line block: each command's arguments, by command."""
    (block,) = re.findall(r"^## Command line\n\n```\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    commands = {}
    for line in block.replace("\\\n", " ").splitlines():
        prog, *args = shlex.split(line)
        assert prog == "mfclust"
        commands[args[0]] = args
    return commands


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = command_lines()
    assert list(commands) == ["simulate", "transform", "fit", "benchmark"]
    monkeypatch.chdir(tmp_path)
    for name in ("simulate", "transform", "fit"):
        assert main(commands[name]) == 0, name
    out = capsys.readouterr().out
    assert "simulated n=200 sensors=18 (signal=2, noise=16) delta=1.5 seed=7\n" in out
    assert "chosen: kind=group m=3 " in out
    noise = [f"noi{i:02d}" for i in range(1, 17)]
    assert (tmp_path / "removed.txt").read_text().split() == noise
    # its 50 replicates are too slow to run here, so the benchmark line is only parsed
    args = build_parser().parse_args(commands["benchmark"])
    assert (args.command, args.scenario, args.reps) == ("benchmark", "sample-size", 50)
    assert (args.output, args.replicates) == ("rows.csv", "reps.csv")


def documented_calls():
    """(name, argument names, keyword names) of each call in the README's
    inline code, outside fenced blocks, whose function is a name of mfclust
    or mfclust.em and whose positional arguments are plain names."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    calls = []
    for span in re.findall(r"`([^`]+)`", prose):
        try:
            tree = ast.parse(span, mode="eval")
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and any(hasattr(mod, node.func.id) for mod in (mfclust, em))
                    and all(isinstance(arg, ast.Name) for arg in node.args)):
                calls.append((node.func.id, [arg.id for arg in node.args], [kw.arg for kw in node.keywords]))
    return calls


def test_readme_calls_name_their_parameters():
    calls = documented_calls()
    assert {"run_em", "model_search", "initialize", "build_basis", "adaptive_weights"} <= {c[0] for c in calls}
    wrong = []
    for name, args, keywords in calls:
        params = list(inspect.signature(getattr(mfclust, name, None) or getattr(em, name)).parameters)
        if args != params[: len(args)] or not set(keywords) <= set(params):
            wrong.append(f"{name}({', '.join(args + [f'{kw}=' for kw in keywords])}) against {params}")
    assert wrong == []
