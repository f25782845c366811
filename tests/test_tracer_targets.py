"""The benchmark's traced run wraps exacthom functions by name.

`benchmark/tracer.py` lists them as (module, attribute path) pairs and looks
them up with getattr when it installs; a library refactor that drops or
renames one makes the traced run fail. This test resolves every pair.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    # tracer.py imports only the standard library and exacthom lazily
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_exacthom():
    tracer = load_tracer()
    pairs = [(module, path) for _name, module, path, _shape in tracer.TARGETS]
    pairs.append(tracer.PARALLEL_MAP)
    missing = []
    for module, path in pairs:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert not missing, f"tracer targets missing from exacthom: {missing}"
