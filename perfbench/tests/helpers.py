"""Shared set-up for the benchmark's own tests: import paths and a workdir."""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import run  # noqa: E402

run._use_checkout()
