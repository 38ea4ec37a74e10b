"""Where the perf tests write their ``BENCH_*.json`` artefacts."""

from __future__ import annotations

import os
import pathlib

import pytest

#: names the directory that receives the artefacts (CI sets it and uploads
#: the files); unset, each test writes under its own pytest ``tmp_path``, so
#: running the suite never rewrites tracked files
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


@pytest.fixture
def bench_dir(tmp_path) -> pathlib.Path:
    """The directory a test writes its ``BENCH_*.json`` artefact into."""
    configured = os.environ.get(BENCH_DIR_ENV)
    if not configured:
        return tmp_path
    path = pathlib.Path(configured)
    path.mkdir(parents=True, exist_ok=True)
    return path
