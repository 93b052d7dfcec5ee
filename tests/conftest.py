"""Shared pytest configuration.

Hypothesis runs under a derandomized profile: every run draws the same
examples, so the suite stays reproducible and its time stays fixed, and no
example database is written.  The fixtures ``adjoint_oracle`` and
``oracle_quadrics`` hold the one test-side reference of the quadric builder:
the adjoint map and the ellipsoid pair written from their definition;
``exp_generators`` is the one scipy reference of the group elements, and
``run_fresh`` the one way to start a fresh interpreter on the tested sources.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import swphase
from swphase.twoqubit import LAMBDA, LOCAL_A, LOCAL_B, TORUS, QuadricTriple

settings.register_profile("swphase", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("swphase")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name[, calls]) wraps ``module.name`` for the test; every call
    appends its positional arguments to ``calls`` (a new list by default), which it returns.
    Pass one list to several bindings of a function to count them together."""

    def install(module, name, calls=None):
        calls = [] if calls is None else calls
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


def _run_fresh(args, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    src = str(Path(swphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=env, timeout=timeout, **kwargs)


@pytest.fixture(scope="session")
def run_fresh():
    """run_fresh(args, timeout=60, **kwargs): `python args` in a fresh interpreter on the
    tested sources, with RuntimeWarning an error as in the suite; ``kwargs`` go to
    subprocess.run."""
    return _run_fresh


def _exp_generators(params, rows):
    expm = pytest.importorskip("scipy.linalg").expm
    return expm(np.einsum("...i,iab->...ab", params, LAMBDA[list(rows)]))


@pytest.fixture(scope="session")
def exp_generators():
    """exp_generators(params, rows): scipy's expm of sum_i params[..., i] LAMBDA[rows[i]], an
    independent reference of the group elements; the calling test skips without scipy."""
    return _exp_generators


def _adjoint_per_generator(g):
    """O[..., m, n] = -tr(g l_n g^dagger l_m) over unitaries (..., 4, 4), one generator pair
    at a time: column n holds the coordinates of g l_n g^dagger."""
    rotated = g[..., None, :, :] @ LAMBDA @ g.conj().swapaxes(-1, -2)[..., None, :, :]
    return -np.einsum("...nab,mba->...mn", rotated, LAMBDA, optimize=True).real


def _quadrics_from_definition(g):
    """A = (4/3) S_A^T S_A and B = (4/3) S_B^T S_B per unitary of a stack, where S_A (S_B)
    holds the rows of the adjoint map for the local generators of qubit A (B) and its
    columns for the torus."""
    o = _adjoint_per_generator(g)[..., list(TORUS)]
    s_a, s_b = o[..., list(LOCAL_A), :], o[..., list(LOCAL_B), :]
    return QuadricTriple(a=(4.0 / 3.0) * s_a.swapaxes(-1, -2) @ s_a,
                         b=(4.0 / 3.0) * s_b.swapaxes(-1, -2) @ s_b)


@pytest.fixture(scope="session")
def adjoint_oracle():
    """adjoint_oracle(g): the adjoint map from its definition."""
    return _adjoint_per_generator


@pytest.fixture(scope="session")
def oracle_quadrics():
    """oracle_quadrics(g): the quadric pairs of a stack of unitaries from the definition,
    the reference of twoqubit.abelian_quadrics, with which it shares no code."""
    return _quadrics_from_definition
