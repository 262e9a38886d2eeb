"""Hypothesis settings for the suite.

Tier-1 runs the "derandomized" profile: each property test draws its
examples from a seed fixed by the test itself, and no example database is
read or written, so every run draws the same examples.  For a local hunt
with fresh examples on each run, select the "randomized" profile:

    HYPOTHESIS_PROFILE=randomized python -m pytest

(or `--hypothesis-profile=randomized`).  A profile sets only the seeding;
each test keeps its own max_examples and deadline.
"""
from __future__ import annotations

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
