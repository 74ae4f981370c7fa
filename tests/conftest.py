"""Helpers shared by the test modules, which import them by name
(``from conftest import ...``), and the ``splits`` fixture of the two
row-split modules."""

import os
from pathlib import Path

import numpy as np
import pytest

from fltune import tensor
from fltune.encoder import EncoderConfig

REPO = Path(__file__).resolve().parents[1]
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def child_env(**extra) -> dict:
    """This environment with ``src`` first on ``PYTHONPATH``, so a child
    interpreter imports fltune from this tree; ``extra`` adds variables."""
    paths = [str(REPO / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                                   else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **extra)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def small_config(**overrides):
    base = dict(d_m=8, n_heads=2, n_layers=2, vocab_size=16,
                max_seq_len=12, n_classes=3)
    base.update(overrides)
    return EncoderConfig(**base)


class CountingJobs:
    """The worker's job queue, counting the halves handed to it."""

    def __init__(self, jobs):
        self.jobs, self.count = jobs, 0

    def put(self, job):
        self.count += 1
        self.jobs.put(job)


@pytest.fixture
def splits(monkeypatch):
    """Splitting switched on; returns the counter of split jobs."""
    if not ONE_BLAS_THREAD:
        pytest.skip("BLAS may run several threads: "
                    "test_module_passes_with_one_blas_thread runs this test")
    monkeypatch.setattr(tensor, "_CAN_SPLIT", True)
    tensor._product(np.ones((48, 512)), np.ones((512, 512)))  # starts the worker
    counter = CountingJobs(tensor._worker["jobs"])
    monkeypatch.setitem(tensor._worker, "jobs", counter)
    return counter
