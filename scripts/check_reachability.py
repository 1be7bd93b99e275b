#!/usr/bin/env python3
"""Fail if a library header is reachable from no product binary.

    check_reachability.py [REPO_ROOT]

Walks quoted #include directives transitively, starting from every source
under bench/, examples/ and perfbench/src plus src/ppg/serve/main.cpp (the
product roots). A reached src/ppg header also pulls in its sibling .cpp,
so a header that only an implementation file includes still counts. Every
src/ppg/**/*.hpp left unreached must be on ALLOWED, with its reason;
otherwise the script exits 1. Tests are not roots: code that only its own
tests reach is exactly what this check exists to find.

Limitation: it works at header granularity. A dead class or function in a
header that product code does reach for other reasons goes unnoticed.
"""

import pathlib
import re
import sys

ALLOWED = {
    "markov/absorbing.hpp": "the exact check of Proposition A.7's "
    "gambler's-ruin closed forms (tests/test_absorbing.cpp)",
}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    lib = root / "src" / "ppg"
    todo = [root / "src/ppg/serve/main.cpp"]
    for top in ("bench", "examples", "perfbench/src"):
        todo += sorted((root / top).rglob("*.[ch]pp"))
    seen = set()
    while todo:
        path = todo.pop().resolve()
        if path in seen or not path.is_file():
            continue
        seen.add(path)
        if path.suffix == ".hpp":
            todo.append(path.with_suffix(".cpp"))
        for name in INCLUDE.findall(path.read_text()):
            todo += [path.parent / name, root / "src" / name]
    unreached = sorted(str(h.relative_to(lib)) for h in lib.rglob("*.hpp")
                       if h.resolve() not in seen)
    for header in unreached:
        reason = ALLOWED.get(header)
        print(f"{header}: " + (f"allowed, {reason}" if reason else "UNREACHED"))
    stale = sorted(set(ALLOWED) - set(unreached))
    for header in stale:
        print(f"{header}: on the allowlist but reached or gone; drop the entry")
    dead = [h for h in unreached if h not in ALLOWED]
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
