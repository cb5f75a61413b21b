#!/usr/bin/env python3
"""List the public src/ API that only the tests reach.

A name is listed when a header under src/ declares it as a function or
method, some file under tests/ uses it, and no file under src/, bench/,
examples/ or benchmark/src/ mentions it except to declare or define it.
Matching is by name after comments and literals are stripped, so a name
that also appears elsewhere (an overload, a same-named method of another
class) is never listed: the report can miss a test-only function but does
not list a used one.

A few names are test references on purpose (KEPT): the per-PE reference
forms the compiled paths are checked against, and the test RNG's coin.
Any other listed name is either a new deliberate reference, to be added
to KEPT, or code to delete.

Usage: python3 ci/test_only_api.py [repo_root]
Exit status: 0 when every listed name is in KEPT, 1 otherwise.
"""

import re
import sys
from collections import Counter
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
USER_DIRS = ["src", "bench", "examples", "benchmark/src"]
NOT_NAMES = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "noexcept", "operator", "explicit",
    "alignas", "defined", "__attribute__",
}
SCOPE_WORDS = re.compile(r"\b(namespace|class|struct|union|enum)\b")
TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/|R\"(\w*)\(.*?\)\1\"|\"(?:\\.|[^\"\\\n])*\"|"
    r"'(?:\\.|[^'\\\n])*'",
    re.S,
)
IDENT = re.compile(r"[A-Za-z_]\w*")
# Test-only on purpose: the tests' coin (Rng::chance) and the per-PE
# reference forms that the compiled gather, output plans and host loads
# are compared against (NestGeometry::iactAt/oactAt, BoundLayout::coordAt).
KEPT = {"chance", "iactAt", "oactAt", "coordAt"}


def strip(text):
    """Text with comments, string and character literals blanked."""
    return TOKEN.sub(lambda m: " ", text)


def declared_names(header_text):
    """Functions and methods a file declares or defines, bodies skipped,
    with the number of times each is.

    Walks the text statement by statement. A '{' opens a scope to descend
    into when its statement names a namespace, class, struct, union or
    enum; any other '{' (a function body, an initializer) is skipped to
    its matching '}'. A statement's declared name is the identifier right
    before its first top-level '(' unless an '=' comes first.
    """
    text = strip(header_text)
    names = Counter()
    stmt_start = 0
    i = 0
    n = len(text)

    def take(stmt):
        stmt = re.sub(r"^\s*(public|private|protected)\s*:", "", stmt)
        stmt = re.sub(r"template\s*<[^;{}]*?>", " ", stmt)
        paren = stmt.find("(")
        if paren < 0 or "=" in stmt[:paren] or stmt.lstrip().startswith("#"):
            return
        head = stmt[:paren].rstrip()
        m = re.search(r"(~?[A-Za-z_]\w*)$", head)
        if m and m.group(1) not in NOT_NAMES and not m.group(1).isupper():
            names[m.group(1).lstrip("~")] += 1

    while i < n:
        c = text[i]
        if c == "#":  # preprocessor line
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            stmt_start = i
            continue
        if c in ";}":
            take(text[stmt_start:i])
            i += 1
            stmt_start = i
            continue
        if c == "{":
            stmt = text[stmt_start:i]
            if SCOPE_WORDS.search(stmt) and "(" not in stmt:
                i += 1
                stmt_start = i
                continue
            take(stmt)
            depth = 0
            while i < n:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            i += 1
            stmt_start = i
            continue
        i += 1
    return names


def idents(path):
    return Counter(IDENT.findall(strip(path.read_text(errors="replace"))))


def sources(root, sub):
    base = root / sub
    if not base.is_dir():
        return []
    return sorted(p for p in base.rglob("*") if p.suffix in SOURCE_SUFFIXES)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    declared = {}  # name -> declaring header (path without suffix)
    for hpp in sources(root, "src"):
        if hpp.suffix == ".hpp":
            for name in declared_names(hpp.read_text(errors="replace")):
                declared.setdefault(name, hpp.with_suffix(""))

    test_uses = set()
    for path in sources(root, "tests"):
        test_uses |= idents(path).keys()

    # Mentions in program code beyond the declarations and definitions.
    uses = Counter()
    for sub in USER_DIRS:
        for path in sources(root, sub):
            uses.update(idents(path))
            uses.subtract(declared_names(path.read_text(errors="replace")))

    listed = sorted(
        (declared[name].relative_to(root).as_posix(), name)
        for name in declared
        if name in test_uses and uses[name] <= 0
    )
    print(f"test-only API: {len(listed)} name(s) declared in src/ that only "
          "tests/ use")
    unexpected = [name for _, name in listed if name not in KEPT]
    for where, name in listed:
        note = "" if name in KEPT else "  <- not in KEPT"
        print(f"  {where}.hpp: {name}{note}")
    if unexpected:
        print(f"error: {len(unexpected)} test-only name(s) outside KEPT: "
              + ", ".join(unexpected))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
