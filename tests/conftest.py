import numpy as np
import pytest
from hypothesis import settings

from driftlab import evolution

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture
def poison_stage(monkeypatch):
    """``poison_stage(stage, step, value, mode)`` makes the SpectralPlan
    stage ("predictor" or "corrector") write ``value`` into the coefficient
    of ``mode`` of its output on its ``step``-th call: at SQG step
    ``step``, as an SQG step calls each stage once."""

    def inject(stage: str, step: int, value: float, mode: tuple = (0, 1)):
        func = getattr(evolution.SpectralPlan, stage)
        calls = []

        def poisoned(plan, *args):
            out = func(plan, *args)
            calls.append(1)
            if len(calls) == step:
                out[mode] = value
            return out

        monkeypatch.setattr(evolution.SpectralPlan, stage, poisoned)

    return inject
