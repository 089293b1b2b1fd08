"""Package surface: the public names, the names the benchmark tracer wraps,
and no import left unused."""

import ast
import importlib.util
import types
from pathlib import Path

import conewave
from conewave import cli

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


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_wraps_is_callable():
    # The tracer records a missing name as absent and reports its metrics
    # as zero, so a renamed helper would go unnoticed there.
    tracer = _tracer()
    assert tracer.WRAPS
    missing = [(module, name) for module, name, *_ in tracer.WRAPS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_every_name_the_benchmark_tracer_wraps_is_called(tmp_path):
    # A name the pipeline stops calling keeps resolving, but its per-layer
    # metrics would read 0 in a traced benchmark run.
    tracer = _tracer()
    recorder = tracer.Recorder()
    scene, out = str(tmp_path / "s.stv"), str(tmp_path / "out")
    recorder.install()
    try:
        for argv in (
            ["synth", "--size", "16x16x8", "--noise", "0.1", "--out", scene],
            ["scan", "--in", scene, "--refine", "--out", out],
            ["orient-scan", "--in", scene, "--out", out],
            ["aperture-sweep", "--in", scene, "--out", out],
            ["frame-bounds", "--grid-size", "8", "--scale-range", "1", "--out", out],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        recorder.uninstall()
    called = {span.name for span in recorder.spans}
    wrapped = {f"{module.rsplit('.', 1)[-1]}.{name}" for module, name, *_ in tracer.WRAPS}
    assert sorted(wrapped - called) == []
    assert recorder.absent == []
    assert recorder.counter_errors == {}


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
