"""Shared test helpers."""

import pytest
from hypothesis import settings

from kmcert import cli, problems

# a run draws only what its test and its explicit examples name: no example
# database carried between runs, and a failure prints its reproduction blob
settings.register_profile("kmcert", database=None, print_blob=True)
settings.load_profile("kmcert")


class Recorder:
    """Row-appending step observer for the engine's ``observe`` hook.

    The engine keeps no vectors past a chunk; tests that recompute a
    quantity from the iterates, residuals, errors, stage errors or
    evaluation parts of a run record them here, one row per step:
    ``z_vecs`` holds ``z_0 .. z_K``, the other lists one entry per step
    (``eps_vecs`` a zero row for an exact step, ``errors`` the step's row of
    the error stream, its stage errors in the channel's segments, or None
    for an exact law, ``parts`` the step's row of the chunk's stacked parts,
    or None for a channel that reports none).
    """

    def __init__(self):
        self.z_vecs = []
        self.e_vecs = []
        self.eps_vecs = []
        self.errors = []
        self.parts = []

    def observe(self, steps):
        if not self.z_vecs:
            self.z_vecs.append(steps.z[0])
        self.z_vecs.extend(steps.z[1:])
        self.e_vecs.extend(steps.e)
        self.eps_vecs.extend(steps.eps)
        none = [None] * len(steps.lam)
        self.errors.extend(none if steps.errors is None else steps.errors)
        self.parts.extend(none if steps.parts is None else zip(*steps.parts))


def _record(run, *args, also=(), **kwargs):
    """Call ``run`` (``run_km`` or a problem's ``run``)
    with a fresh :class:`Recorder` as its hook, followed by the hooks in
    ``also``; returns (trace, recorder)."""
    rec = Recorder()
    hooks = [rec.observe, *also]

    def observe(steps):
        for hook in hooks:
            hook(steps)

    return run(*args, observe=observe, **kwargs), rec


@pytest.fixture(scope="session")
def record():
    return _record


@pytest.fixture
def fresh_references():
    """An empty memo of CLI-built problems, and so of their fixed-point
    references, before and after the test, so what it counts does not
    depend on the tests that ran before it."""
    cli._built.cache_clear()
    yield
    cli._built.cache_clear()


@pytest.fixture
def solves(fresh_references, monkeypatch):
    """The problems whose reference is solved during the test, in order."""
    solved = []
    solve = problems.reference_solution

    def counting(problem, *args, **kwargs):
        solved.append(problem.name)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(problems, "reference_solution", counting)
    return solved
