"""Every function the benchmark harness counts is still defined by the program.

bench/layers.py reads call counts off a profile by function name, and a
renamed function would only show up as a null or zero counter in a traced
benchmark run. The harness module is loaded from its file, unchanged.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM_DIR = ROOT / "src" / "mfclust"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


LAYERS = load_layers()
HOOKS = [(module, name) for _, module, name in LAYERS.CALL_COUNTS] + [("em", "_variances"), ("em", "_em_attempt")]


@pytest.mark.parametrize("module,name", HOOKS, ids=[f"{m}.{n}" for m, n in HOOKS])
def test_benchmark_hook_is_defined(module, name):
    assert LAYERS.defines(str(PROGRAM_DIR), module, name)


@pytest.mark.parametrize("part", list(LAYERS.EM_PARTS))
def test_em_layer_names_a_defined_function(part):
    # a layer none of whose functions the program defines reads null as em.<part>_s
    assert any(LAYERS.defines(str(PROGRAM_DIR), "em", name) for name in LAYERS.EM_PARTS[part])
