"""The benchmark's hooks into the program still resolve.

perfbench/layers.py names the functions it wraps for tracing and the
lru_cache'd coordinate-map builders whose caches perfbench/run.py clears
before every operation. A rename in the program would break the
benchmark without failing anything else, so this reads those names.
"""

import importlib
import os
import types

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def load_layers():
    # executed from its source text, so nothing is written next to it
    with open(LAYERS) as fh:
        code = compile(fh.read(), LAYERS, "exec")
    module = types.ModuleType("perfbench_layers")
    exec(code, module.__dict__)
    return module


def test_wrapped_functions_resolve():
    layers = load_layers()
    for _, module, names in layers.WRAPPED:
        mod = importlib.import_module(f"credalkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"credalkit.{module}.{name}"


def test_map_builders_are_cached():
    layers = load_layers()
    spaces = importlib.import_module("credalkit.spaces")
    for name in layers.MAP_BUILDERS:
        fn = getattr(spaces, name)
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
