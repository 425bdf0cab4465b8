"""DESIGN.md section 3 is a hand-kept inventory; keep it from drifting.

It once listed a deleted module and omitted five packages.  Every
package directory and every module under ``src/repro`` must be named in
the section's tree.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(ROOT, "src", "repro")


def inventory() -> str:
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("## 3. Module inventory")
    return text[start:text.index("\n## 4.", start)]


def test_every_package_and_module_is_in_the_inventory():
    section = inventory()
    missing = []
    for directory, packages, files in os.walk(PACKAGE_ROOT):
        packages[:] = [name for name in packages if name != "__pycache__"]
        where = os.path.relpath(directory, PACKAGE_ROOT)
        for name in packages:
            # A package heads its own indented line: "  jsonlib/   ...".
            if not re.search(rf"^ +{re.escape(name)}/", section, re.MULTILINE):
                missing.append(os.path.join(where, name) + "/")
        for name in files:
            if name.endswith(".py") and name != "__init__.py":
                if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", section):
                    missing.append(os.path.join(where, name))
    assert not missing, f"DESIGN.md section 3 does not list: {sorted(missing)}"
