"""Package surface: the public names, the names the benchmark tracer wraps,
and no import left unused."""

import ast
import importlib.util
import types
from pathlib import Path

import conewave

SOURCE = Path(conewave.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(conewave).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(conewave.__all__) == sorted(bound)
    assert len(set(conewave.__all__)) == len(conewave.__all__)
    for name in conewave.__all__:
        assert getattr(conewave, name) is not None
    for gone in ("eval_cauchy_1d", "arp", "WaveletCoefficients"):
        assert gone not in conewave.__all__
        assert not hasattr(conewave, gone)


def test_every_name_the_benchmark_tracer_wraps_is_callable():
    # The tracer records a missing name as absent and reports its metrics
    # as zero, so a renamed helper would go unnoticed there.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    missing = [(module, name) for module, name, *_ in tracer.WRAPS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), filename=str(p)))
              for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
