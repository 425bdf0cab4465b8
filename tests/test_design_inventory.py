"""DESIGN.md section 3 is a hand-kept inventory; keep it from drifting.

It once listed a deleted module and omitted five packages.  Both ways
are checked: every package directory and every module under
``src/repro`` must be named in the section's tree, and every module the
tree lists under a package heading must exist in that package.
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


def listed_modules() -> list[str]:
    """``package/module.py`` for every module the tree lists.

    A package heads a line ending its first word in ``/``; the modules
    it holds start the lines indented two spaces deeper (several may
    share one line), so descriptions, which continue further right,
    never count.
    """
    tree = inventory().split("```")[1]
    listed = []
    stack: list[tuple[int, str]] = []  # (indent, package path)
    for line in tree.splitlines():
        words = line.split()
        if not words:
            continue
        indent = len(line) - len(line.lstrip())
        if words[0] == "src/repro/":
            stack = [(0, "")]
            continue
        if not stack or indent == 0:
            stack = []  # past src/repro/: benchmarks/, tools/, ...
            continue
        if words[0].endswith("/"):
            while stack[-1][0] >= indent:
                stack.pop()
            stack.append((indent, os.path.join(stack[-1][1], words[0][:-1])))
            continue
        while stack[-1][0] + 2 > indent:
            stack.pop()
        if indent != stack[-1][0] + 2:
            continue
        for word in words:
            if not re.fullmatch(r"\w+\.py", word):
                break
            listed.append(os.path.join(stack[-1][1], word))
    return listed


def test_every_listed_module_exists():
    listed = listed_modules()
    assert "jsonlib/parser.py" in listed and "service/events.py" in listed
    gone = [
        module for module in listed
        if not os.path.isfile(os.path.join(PACKAGE_ROOT, module))
    ]
    assert not gone, f"DESIGN.md section 3 lists missing modules: {gone}"
