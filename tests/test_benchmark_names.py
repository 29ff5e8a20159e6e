"""The names the benchmark in ``perfbench/`` looks up in nommon.

``perfbench/layers.py`` wraps nommon's functions by name and its tests
read ``nommon.monoid.min_coset``; a refactor that drops one of them
breaks the benchmark, so this check runs with the library's tests.
"""

import importlib.util
import os

import pytest

import nommon.kernel
import nommon.monoid

LAYERS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "layers.py"
)


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, module_name, names", load_layers())
def test_traced_functions_exist(layer, module_name, names):
    home = importlib.import_module(module_name)
    for qualname in names:
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(home, cls_name)), (layer, qualname)
        else:
            assert callable(getattr(home, qualname, None)), (layer, qualname)


def test_monoid_keeps_the_kernel_binding():
    assert nommon.monoid.min_coset is nommon.kernel.min_coset
