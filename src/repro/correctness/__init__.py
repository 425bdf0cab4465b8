"""Correctness tooling: plan invariant validation and differential testing.

The paper's rewrite rules are only worth reproducing if they are
*semantics-preserving*; this package checks that on purpose instead of
by accident:

- :mod:`repro.correctness.validator` — structural plan invariants
  (variable scoping, nested-plan shape, aggregate arity), run by the
  fixpoint engine after every rule fire,
- :mod:`repro.correctness.oracle` — an independent plain-Python oracle
  for the five paper queries, over documents the standard library
  decodes (``reference_documents``),
- :mod:`repro.correctness.generator` — randomized GHCN-shaped documents
  and small JSONiq queries (each paired with its own oracle),
- :mod:`repro.correctness.harness` — the differential harness running
  queries through the rewrite-toggle × backend × projection matrix,
  with a minimizing shrinker for failures.
"""

from repro.correctness.validator import PlanInvariantError, validate_plan
from repro.correctness.oracle import (
    iter_measurements,
    oracle_result,
    reference_q0,
    reference_q0b,
    reference_q1,
    reference_q1_groups,
    reference_q2,
)
from repro.correctness.harness import (
    DiffCheckReport,
    Mismatch,
    canonical_result,
    run_diffcheck,
)

__all__ = [
    "PlanInvariantError",
    "validate_plan",
    "iter_measurements",
    "oracle_result",
    "reference_q0",
    "reference_q0b",
    "reference_q1",
    "reference_q1_groups",
    "reference_q2",
    "DiffCheckReport",
    "Mismatch",
    "canonical_result",
    "run_diffcheck",
]
