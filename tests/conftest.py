"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs five times the
default examples with no per-example deadline; unset, the default holds."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
