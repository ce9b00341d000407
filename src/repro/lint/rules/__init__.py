"""The rule registry.

Importing this package imports every rule module, which registers its
per-file :class:`~repro.lint.rules.base.Rule` or project-wide
:class:`~repro.lint.rules.base.FlowRule` via the
:func:`~repro.lint.rules.base.register` decorator.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for registration side effects)
    rl001_determinism,
    rl002_units,
    rl003_errors,
    rl004_float_eq,
    rl005_obs,
    rl006_timing,
    rl007_shard_race,
    rl008_iter_order,
    rl009_fingerprint_purity,
)
from .base import (
    FileContext,
    FlowRule,
    Rule,
    all_rules,
    register,
    select_rules,
)

__all__ = [
    "FileContext",
    "FlowRule",
    "Rule",
    "all_rules",
    "register",
    "select_rules",
]
