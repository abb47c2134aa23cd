#!/usr/bin/env python3
"""Fail on exports of the allocators and the core that nothing calls.

Every `val` in lib/alloc/*.mli and lib/core/*.mli must be used by some
.ml file of lib, bin, test, perfbench or examples other than its own
module's .ml.  A use is the value's name qualified by its module, by a
submodule the .mli declares (`Ctree.d`), or by a local alias of either
(`module T = Alloc.Int_table` ... `T.find_or`); or its bare name in a
file that opens the module (`open`, `let open`, `M.( ... )`).

    python3 test/dead_exports.py

Prints each unused export as `file: val name` and exits 1 when there is
one, 0 otherwise.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERFACES = ("lib/alloc", "lib/core")
CALLERS = ("lib", "bin", "test", "perfbench", "examples")

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
SUBMODULE = re.compile(r"^\s*module\s+([A-Z][A-Za-z0-9_']*)\s*:", re.M)


def sources():
    for top in CALLERS:
        for p in sorted((ROOT / top).rglob("*.ml")):
            if "_build" not in p.parts:
                yield p, p.read_text()


def names_for(module, submodules, text):
    """The names [text] can qualify [module]'s values with."""
    names = {module} | set(submodules)
    path = rf"(?:[A-Z][A-Za-z0-9_']*\.)*"
    for target in [module] + [f"{module}.{s}" for s in submodules]:
        alias = re.compile(
            rf"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*{path}{re.escape(target)}\b(?!\.)")
        names |= set(alias.findall(text))
    return names


def opens(module, text):
    q = rf"(?:[A-Z][A-Za-z0-9_']*\.)*{re.escape(module)}"
    return re.search(rf"\bopen!?\s+{q}\b|\b{q}\.\(", text) is not None


def main():
    files = list(sources())
    dead = []
    for top in INTERFACES:
        for mli in sorted((ROOT / top).glob("*.mli")):
            interface = mli.read_text()
            module = mli.stem.capitalize()
            own = mli.with_suffix(".ml")
            submodules = SUBMODULE.findall(interface)
            for value in VAL.findall(interface):
                used = False
                for path, text in files:
                    if path == own or value not in text:
                        continue
                    quals = "|".join(map(re.escape, names_for(module, submodules, text)))
                    if re.search(rf"\b(?:{quals})\.{re.escape(value)}\b", text) or (
                        opens(module, text)
                        and re.search(rf"(?<![.\w']){re.escape(value)}\b", text)):
                        used = True
                        break
                if not used:
                    dead.append(f"{mli.relative_to(ROOT)}: val {value}")
    for line in dead:
        print(line)
    if dead:
        print(f"{len(dead)} export(s) with no caller outside their own module")
        return 1
    print("every lib/alloc and lib/core export has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
