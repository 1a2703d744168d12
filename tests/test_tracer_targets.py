"""The benchmark's layer tracer names functions of dt4vertex by module and
attribute path; every name must still resolve, or traced benchmark runs
fail.  This reads ``perfbench/layertrace.py`` and changes nothing there."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    """The tracer module, loaded from its file without writing bytecode."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_target_resolves():
    lt = load_layertrace()
    missing = []
    for mod_name, path, _ in lt.TARGETS:
        module = importlib.import_module(f"dt4vertex.{mod_name}")
        try:
            fn = lt._resolve(module, path)
        except (AttributeError, KeyError):
            missing.append(f"{mod_name}.{path}")
            continue
        assert callable(fn), f"{mod_name}.{path} is not callable"
    assert not missing, f"tracer targets no longer in dt4vertex: {missing}"


def test_generators_are_generator_functions():
    lt = load_layertrace()
    assert len(lt.GENERATORS) == 2
    for name in lt.GENERATORS:
        mod_name, path = name.split(".", 1)
        fn = lt._resolve(importlib.import_module(f"dt4vertex.{mod_name}"), path)
        assert inspect.isgeneratorfunction(fn), name
