"""One resolution rule for every ``REPRO_*`` environment variable.

Before this module each consumer resolved its variable slightly
differently — ``spill.py`` used ``os.environ.get(VAR) or default`` (an
explicitly empty ``REPRO_SPILL_DIR=""`` silently fell back to the
built-in default) while ``cache/config.py`` treated an explicit ``""``
as "disable the feature".  A long-lived service cannot live with that
ambiguity, so every ``REPRO_*`` variable now resolves through
:func:`env_setting` under one documented contract:

1. an **explicit argument** at the call site always wins (callers check
   for it before consulting the environment);
2. otherwise a **set** variable supplies the value — and a variable
   explicitly set to the empty string (or whitespace) means "feature
   off / no override", it is *never* silently replaced by a built-in
   default;
3. otherwise (variable unset) the built-in default applies.

Variables resolved through this rule: ``REPRO_BACKEND``,
``REPRO_SPILL_DIR``, ``REPRO_DEADLINE``, ``REPRO_PROFILE``,
``REPRO_SCAN_MODE``, ``REPRO_SEGMENT_CACHE``, ``REPRO_COST``,
``REPRO_BENCH_SCALE``.
For most of them the built-in default *is* the off/neutral setting, so
rules 2 and 3 coincide for an empty string — the contract matters
because it pins what a non-neutral default must do, and because callers
must distinguish "unset" from "set but empty" to honour it.
``REPRO_COST`` is where the rules *diverge*: cost-based planning
defaults **on**, so unset means on while set-but-empty (or ``0`` /
``off`` / ``false`` / ``no``) means explicitly off.
``REPRO_BENCH_SCALE`` is a multiplier with no off value: unset or empty
means no override (1.0).
"""

from __future__ import annotations

import os


def env_setting(name: str, default: str | None = None) -> str | None:
    """Resolve one ``REPRO_*`` variable: unset → *default*, set → value.

    The value is stripped; a variable explicitly set to the empty
    string (or only whitespace) returns ``""``, which callers must
    treat as "feature off / no override" — never as "fall back to the
    built-in default".  Truthiness on the return value implements
    exactly that: ``env_setting(X) or fallback`` is **wrong** (it
    erases the set-but-empty case), the correct pattern is::

        value = env_setting(X)
        if value is None:   # unset
            value = built_in_default
        if not value:       # "" -> explicitly off
            return disabled
    """
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip()
