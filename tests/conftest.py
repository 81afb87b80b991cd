"""Shared test helpers."""

import numpy as np
import pytest


class Recorder:
    """List-appending step observer for the engine's ``observe`` hook.

    The engine keeps no vectors; tests that recompute a quantity from the
    iterates, residuals, errors, channel vectors or evaluation parts of a
    run record them here: ``z_vecs`` holds ``z_0 .. z_K``, the other lists
    one entry per step (``eps_vecs`` holds None for an exact step, ``parts``
    None for an evaluation that reports none).
    """

    def __init__(self):
        self.z_vecs = []
        self.e_vecs = []
        self.eps_vecs = []
        self.channel = []
        self.parts = []

    def observe(self, k, z, z_next, e, eps, lam, extras):
        if not self.z_vecs:
            self.z_vecs.append(z)
        self.z_vecs.append(z_next)
        self.e_vecs.append(e)
        self.eps_vecs.append(eps)
        self.channel.append((extras or {}).get("channel"))
        self.parts.append((extras or {}).get("parts"))

    def eps_vector(self, k):
        """The error of step k, zero for an exact step."""
        eps = self.eps_vecs[k]
        if eps is not None:
            return eps
        return np.zeros_like(self.e_vecs[k])


def _record(run, *args, also=(), **kwargs):
    """Call ``run`` (``run_km`` or a problem's ``exact_run``/``inexact_run``)
    with a fresh :class:`Recorder` as its hook, followed by the hooks in
    ``also``; returns (trace, recorder)."""
    rec = Recorder()
    hooks = [rec.observe, *also]

    def observe(*step):
        for hook in hooks:
            hook(*step)

    return run(*args, observe=observe, **kwargs), rec


@pytest.fixture(scope="session")
def record():
    return _record


@pytest.fixture
def fresh_references(monkeypatch):
    """An empty fixed-point reference cache for the test, so what it counts
    does not depend on the tests that ran before it."""
    from kmcert import problems

    monkeypatch.setattr(problems, "_REFERENCES", {})
    return problems._REFERENCES
