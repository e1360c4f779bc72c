"""Hypothesis profiles.  ``--hypothesis-profile=ci`` (set in the CI
workflow) makes every property test draw the same examples on each run;
without it, local runs keep exploring new random examples."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
