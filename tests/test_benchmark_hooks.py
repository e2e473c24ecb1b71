"""The benchmark's hooks into the program still resolve.

perfbench/layers.py names the functions it wraps for tracing and the
lru_cache'd coordinate-map builders whose caches perfbench/run.py clears
before every operation, and reads the kernel's first two arguments and
its Fraction results. A rename or a contract change in the program would
break the benchmark without failing anything else, so this checks them.
"""

import importlib
import inspect
import os
import types
from fractions import Fraction

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


def test_kernel_info_reads_shape_and_fractions():
    layers = load_layers()
    backend = importlib.import_module("credalkit._backend")
    params = list(inspect.signature(backend.simplex_solve).parameters)
    assert params[:2] == ["m", "n"]
    cases = [
        # the row [1, 2 | 3] over 2 is x0/2 + x1 = 3/2: optimal at (0, 3/2)
        ((1, 2, [[1, 2, 3]], [2], [1, 1]), "optimal", 2),
        # x0 + x1 = 1 and x0 + x1 = 2: infeasible, y = (-1, 1)
        ((2, 2, [[1, 1, 1], [1, 1, 2]], [1, 1], [0, 0]), "infeasible", 1),
    ]
    for args, status, bits in cases:
        result = backend.simplex_solve(*args)
        assert result[0] == status
        values = result[1] if status == "optimal" else result[2]
        assert all(type(v) is Fraction for v in values)
        info = layers._kernel_info(args, result)
        assert info == {"cells": args[0] * args[1], "bits": bits}
