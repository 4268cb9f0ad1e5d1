#!/usr/bin/env python3
"""Layering and single-definition check over the source tree.

Usage: check_layering.py [REPO_ROOT]

Fails (exit 1, one line per violation) when
  - a file under src/<mod>/ includes "<other>/..." although fmm_<other>
    is not in fmm_<mod>'s transitive target_link_libraries set, as
    declared in src/*/CMakeLists.txt;
  - src/<mod>/CMakeLists.txt links an fmm_<other> directly although no
    file under src/<mod>/ includes "<other>/...";
  - a file in src/ or examples/ outside src/common/ defines json_escape
    or write_double, or spells the SplitMix64 multiplier or the FNV-1a 64
    prime: those live once, in src/common/json.hpp and src/common/hash.hpp.
"""
import os
import re
import sys

LINK_RE = re.compile(r"target_link_libraries\(\s*fmm_(\w+)([^)]*)\)", re.S)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(\w+)/', re.M)
DEFINITION_RE = re.compile(
    r"\b(?:void|auto|std::string|string)\s+(json_escape|write_double)\s*\(")
CONSTANT_RE = re.compile(
    r"0xbf58476d1ce4e5b9|(?<![0-9])1099511628211(?![0-9])|"
    r"0x100000001b3(?![0-9a-f])", re.I)


def sources(directory):
    for root, _, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                yield os.path.join(root, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def direct_links(src):
    """Module -> the modules its CMakeLists.txt links directly."""
    links = {d: set() for d in os.listdir(src)
             if os.path.isfile(os.path.join(src, d, "CMakeLists.txt"))}
    for mod in links:
        for target, body in LINK_RE.findall(
                read(os.path.join(src, mod, "CMakeLists.txt"))):
            if target in links:
                links[target].update(
                    dep for dep in re.findall(r"\bfmm_(\w+)", body)
                    if dep in links)
    return links


def link_closures(links):
    """Module -> every module it links, directly or transitively."""
    closures = {}
    for mod in links:
        seen, stack = set(), [mod]
        while stack:
            for dep in links[stack.pop()] - seen:
                seen.add(dep)
                stack.append(dep)
        closures[mod] = seen | {mod}
    return closures


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    src = os.path.join(root, "src")
    links = direct_links(src)
    closures = link_closures(links)
    violations = []
    for mod in sorted(closures):
        includes = set()
        for path in sources(os.path.join(src, mod)):
            for included in INCLUDE_RE.findall(read(path)):
                includes.add(included)
                if included in closures and included not in closures[mod]:
                    violations.append(
                        f"{os.path.relpath(path, root)}: includes "
                        f'"{included}/..." but fmm_{mod} does not link '
                        f"fmm_{included}")
        for dep in sorted(links[mod] - includes):
            violations.append(
                f"src/{mod}/CMakeLists.txt: links fmm_{dep} but no file "
                f'under src/{mod}/ includes "{dep}/..."')
    common = os.path.join(src, "common") + os.sep
    for directory in (src, os.path.join(root, "examples")):
        for path in sources(directory):
            if path.startswith(common):
                continue
            for lineno, line in enumerate(read(path).splitlines(), 1):
                where = f"{os.path.relpath(path, root)}:{lineno}"
                if match := DEFINITION_RE.search(line):
                    violations.append(f"{where}: defines {match.group(1)}; "
                                      "use src/common/json.hpp")
                if match := CONSTANT_RE.search(line):
                    violations.append(f"{where}: spells hash constant "
                                      f"{match.group(0)}; use "
                                      "src/common/hash.hpp")
    for line in violations:
        print(f"check_layering: {line}", file=sys.stderr)
    if not violations:
        print(f"check_layering: OK ({len(closures)} modules)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
