"""The ``REPRO_*`` environment variables are listed where users look.

``repro.envutil``'s docstring and README's environment paragraph both
name every variable the package reads.  Both ways are checked: every
``REPRO_*`` name a module under ``src/repro`` reads (a string constant
in its code, not in a docstring or comment) is in both lists, and each
list names nothing that is no longer read.
"""

import ast
import os
import re

import repro.envutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(ROOT, "src", "repro")
NAME = re.compile(r"REPRO_[A-Z][A-Z_]*")


def read_names() -> set[str]:
    """Every ``REPRO_*`` name that is a whole string constant in code."""
    names = set()
    for directory, _, files in os.walk(PACKAGE_ROOT):
        for file in files:
            if not file.endswith(".py"):
                continue
            with open(os.path.join(directory, file), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and NAME.fullmatch(node.value)
                ):
                    names.add(node.value)
    return names


def envutil_names() -> set[str]:
    doc = repro.envutil.__doc__
    start = doc.index("Variables resolved through this rule:")
    return set(NAME.findall(doc[start:doc.index(".\n", start)]))


def readme_names() -> set[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("All `REPRO_*` environment variables (")
    return set(NAME.findall(text[start:text.index(")", start)]))


def test_the_scan_finds_the_variables():
    assert {"REPRO_BACKEND", "REPRO_COST", "REPRO_BENCH_SCALE"} <= read_names()


def test_envutil_lists_exactly_the_variables_read():
    assert envutil_names() == read_names()


def test_readme_lists_exactly_the_variables_read():
    assert readme_names() == read_names()
