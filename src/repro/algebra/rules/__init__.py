"""Rewrite rules: the paper's three JSONiq rule families plus built-ins.

- :mod:`repro.algebra.rules.base` — rule/engine framework and helpers,
- :mod:`repro.algebra.rules.builtin` — Algebricks-style built-in rules
  (variable inlining, join predicate folding, cleanups), always applied,
- :mod:`repro.algebra.rules.path_rules` — Section 4.1,
- :mod:`repro.algebra.rules.pipelining_rules` — Section 4.2,
- :mod:`repro.algebra.rules.groupby_rules` — Section 4.3.

:func:`rule_pipeline` assembles the rule list for a
:class:`RewriteConfig`, which is how the benchmarks toggle rule families
on and off to reproduce the before/after experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.rules.base import RewriteRule, RuleEngine


@dataclass(frozen=True)
class RewriteConfig:
    """Which rule families are enabled.

    The families are cumulative in the paper's evaluation (path →
    +pipelining → +group-by); ``two_step_aggregation`` is the
    partition-local/global aggregation scheme the group-by section
    enables, honored by the physical compiler.
    """

    path: bool = True
    pipelining: bool = True
    groupby: bool = True
    two_step_aggregation: bool = True

    @classmethod
    def none(cls) -> "RewriteConfig":
        """No JSONiq rules at all (built-ins still apply)."""
        return cls(False, False, False, False)

    @classmethod
    def path_only(cls) -> "RewriteConfig":
        return cls(True, False, False, False)

    @classmethod
    def path_and_pipelining(cls) -> "RewriteConfig":
        return cls(True, True, False, False)

    @classmethod
    def all(cls) -> "RewriteConfig":
        return cls(True, True, True, True)

    @classmethod
    def without_family(cls, family: str) -> "RewriteConfig":
        """All rules on except one named family — the differential
        harness's per-family toggles.  ``family`` is one of ``"path"``,
        ``"pipelining"``, ``"groupby"``, ``"two_step_aggregation"``."""
        if family not in _FAMILY_FIELDS:
            raise ValueError(
                f"unknown rule family {family!r}; expected one of "
                f"{sorted(_FAMILY_FIELDS)}"
            )
        return cls(**{name: name != family for name in _FAMILY_FIELDS})

    def label(self) -> str:
        """Short human-readable toggle label (used in reports/goldens)."""
        if all(getattr(self, name) for name in _FAMILY_FIELDS):
            return "all"
        if not any(getattr(self, name) for name in _FAMILY_FIELDS):
            return "none"
        off = [name for name in _FAMILY_FIELDS if not getattr(self, name)]
        return "no-" + "+".join(off)


_FAMILY_FIELDS = ("path", "pipelining", "groupby", "two_step_aggregation")

#: The harness's rule-toggle axis: everything on, each family off in
#: turn, everything off.
TOGGLE_CONFIGS: dict[str, RewriteConfig] = {
    "all": RewriteConfig.all(),
    "no-path": RewriteConfig.without_family("path"),
    "no-pipelining": RewriteConfig.without_family("pipelining"),
    "no-groupby": RewriteConfig.without_family("groupby"),
    "no-two_step_aggregation": RewriteConfig.without_family(
        "two_step_aggregation"
    ),
    "none": RewriteConfig.none(),
}


def rule_pipeline(config: RewriteConfig) -> RuleEngine:
    """Build the rule engine for *config*, with the plan invariant
    validator (:func:`repro.correctness.validator.validate_plan`)
    checking the translated plan and every rule fire."""
    from repro.algebra.rules import builtin, groupby_rules, path_rules
    from repro.algebra.rules import pipelining_rules
    from repro.correctness.validator import validate_plan

    rules: list[RewriteRule] = []
    if config.path:
        rules.extend(path_rules.PATH_RULES)
    if config.pipelining:
        rules.extend(pipelining_rules.PIPELINING_RULES)
    if config.groupby:
        rules.extend(groupby_rules.GROUPBY_RULES)
    rules.extend(builtin.BUILTIN_RULES)
    return RuleEngine(rules, validator=validate_plan)


__all__ = [
    "RewriteConfig",
    "RewriteRule",
    "RuleEngine",
    "TOGGLE_CONFIGS",
    "rule_pipeline",
]
