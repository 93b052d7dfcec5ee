"""The public API: exported names exist, public definitions are exported, and value objects compare by identity."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

from swphase import composite, kernel, linalg, twoqubit

MODULES = ["linalg", "kernel", "composite", "twoqubit", "reports"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"swphase.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_exported(name):
    module = importlib.import_module(f"swphase.{name}")
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_dataclasses_holding_arrays_compare_by_identity():
    # Their fields hold arrays, whose == has no truth value: == is identity,
    # so it returns a bool, and the objects hash.
    spectrum = kernel.solve_kernel_spectrum(3, "random", seed=1)
    ker = kernel.kernel_from_spectrum(spectrum, linalg.haar_unitary(3, 1))
    record = twoqubit.moduli_record(0, [0.3, -1.2, 2.0], [0.7, 0.1, -0.4])
    objects = [ker, composite.make_composite_kernel(linalg.BipartiteDims(2, 2), 0),
               linalg.random_density(3, 2), spectrum, record.quadrics, record,
               record.feasibility, twoqubit.kak_element(np.zeros(6), *np.ones((3, 3)))]
    for obj in objects:
        twin = dataclasses.replace(obj) if type(obj) is not twoqubit.QuadricTriple \
            else twoqubit.QuadricTriple(obj.a, obj.b)
        assert (obj == obj) is True
        assert (obj == twin) is False and (obj != twin) is True
        assert len({obj, twin, obj}) == 2
