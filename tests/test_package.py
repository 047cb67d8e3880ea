"""The package's public names: `fedsim.__all__` lists what it imports, the
README documents them, and the tests and benchmark reach nothing else
through the `fedsim` namespace."""

import ast
import contextlib
import io
import pkgutil
import re
from pathlib import Path

import fedsim

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

API = {
    "parse_config",
    "load_config",
    "ConfigError",
    "run_experiment",
    "run_experiments",
    "FedAvg",
    "FedProx",
    "FedNova",
    "Tifl",
    "DeadlineDrop",
    "FreezeOffload",
    "ExperimentResult",
    "ExperimentSummary",
    "RoundTrace",
    "RoundPlan",
    "ClientPlan",
    "OffloadSchedule",
    "OffloadAssignment",
    "PartitionedModel",
}
SUBMODULES = {m.name for m in pkgutil.iter_modules(fedsim.__path__)}


def code_blocks(text):
    """(language, body) of each fenced code block."""
    return re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)


def test_all_lists_every_imported_name():
    tree = ast.parse(Path(fedsim.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(fedsim.__all__) == sorted(imported)
    for name in fedsim.__all__:
        assert hasattr(fedsim, name), name


def test_all_is_the_documented_api():
    assert sorted(fedsim.__all__) == sorted(API)


def test_readme_imports_only_the_api():
    imports = re.compile(r"from fedsim import (\([^)]*\)|[\w ,]+)")
    names = {
        name.split()[0]
        for _, body in code_blocks(README.read_text(encoding="utf-8"))
        for match in imports.finditer(body)
        for name in match.group(1).strip("()").split(",")
        if name.strip()
    }
    assert names, "no `from fedsim import` in the README"
    assert names <= API, sorted(names - API)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    language, body = code_blocks(section)[0]
    assert language == "python"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(body, "README.md", "exec"), {})
    first, *records = out.getvalue().splitlines()
    baseline, offload = map(float, first.split())
    assert 0 < offload < baseline
    assert records and all(len(line.split()) == 5 for line in records)


def test_tests_and_benchmark_use_only_the_api_through_fedsim():
    def allowed(name):
        return name in API or name in SUBMODULES or name.startswith("__")

    reached = []
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "fedsim" and node.level == 0:
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "fedsim"
            ):
                names = [node.attr]
            else:
                continue
            reached += [f"{path.name}:{node.lineno}: {n}" for n in names if not allowed(n)]
    assert reached == []
