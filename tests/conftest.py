"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs ten times the default
example budget for every property that does not pin its own."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
