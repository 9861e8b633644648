#!/usr/bin/env python3
"""Docs integrity checker: links, CLI flags, and RuntimeConfig fields.

Three offline checks over the repo's markdown (README.md, docs/,
ROADMAP.md, ...), run by CI after every push:

* every relative ``[text](target)`` link must resolve to a file;
* every ``--flag`` token mentioned in the docs must exist somewhere in
  the CLI surface — the ``repro.cli`` argparse tree is introspected
  (recursively through subparsers), and the benchmark/tool scripts are
  scanned for ``add_argument("--...")`` calls;
* every ``RuntimeConfig.field`` / ``RuntimeConfig(field=...)`` mention
  must name a real dataclass field (introspected, not hard-coded).

The last two exist because knob documentation rots silently: a renamed
flag fails no test, it just strands the operator reading the docs.

Usage::

    python tools/check_docs_links.py [root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links; images share the syntax (leading ``!`` ignored).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: A long CLI flag mentioned in prose or a code fence. The lookbehind
#: keeps markdown anchor fragments (``#a-heading--with--dashes``) and
#: mid-word double hyphens from reading as flags.
FLAG_RE = re.compile(r"(?<![\w#/-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")

#: RuntimeConfig field mentions: attribute style and constructor style.
RUNTIME_FIELD_RE = re.compile(r"RuntimeConfig(?:\.|\(\s*)([a-z_][a-z0-9_]*)")

#: ``add_argument("--flag"``-style declarations in scripts outside the
#: importable CLI (benchmarks, tools).
ADD_ARGUMENT_RE = re.compile(r"add_argument\(\s*['\"](--[\w-]+)")

#: Markdown files considered documentation (repo-root globs).
DOC_GLOBS = ("*.md", "docs/**/*.md")

#: Scripts whose ad-hoc argparse flags count toward the flag universe.
SCRIPT_GLOBS = ("benchmarks/*.py", "benchmarks/suite/*.py", "tools/*.py")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def iter_links(path: Path):
    text = path.read_text(encoding="utf-8")
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            yield match.group(1)


def iter_docs(root: Path):
    for pattern in DOC_GLOBS:
        yield from sorted(root.glob(pattern))


def check_links(root: Path):
    broken = []
    checked = 0
    for doc in iter_docs(root):
        for target in iter_links(doc):
            if target.startswith(SKIP_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            checked += 1
            resolved = (doc.parent / relative).resolve()
            if not resolved.exists():
                broken.append(f"{doc.relative_to(root)}: {target}")
    return checked, broken


# ----------------------------------------------------------------------
# Flag and RuntimeConfig-field universes (introspected, not hard-coded)
# ----------------------------------------------------------------------
def _argparse_flags(parser) -> set:
    """All long option strings of *parser*, recursing through subparsers."""
    import argparse

    flags: set = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                flags.update(_argparse_flags(subparser))
    return flags


def flag_universe(root: Path) -> set:
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.cli import build_parser

        flags = _argparse_flags(build_parser())
    finally:
        sys.path.pop(0)
    for pattern in SCRIPT_GLOBS:
        for script in root.glob(pattern):
            flags.update(ADD_ARGUMENT_RE.findall(script.read_text(encoding="utf-8")))
    return flags


def runtime_config_fields(root: Path) -> set:
    import dataclasses

    sys.path.insert(0, str(root / "src"))
    try:
        from repro.parallel.config import RuntimeConfig

        return {field.name for field in dataclasses.fields(RuntimeConfig)}
    finally:
        sys.path.pop(0)


def check_mentions(root: Path):
    """Every doc-mentioned flag / RuntimeConfig field must exist."""
    known_flags = flag_universe(root)
    known_fields = runtime_config_fields(root)
    stale = []
    checked = 0
    for doc in iter_docs(root):
        text = doc.read_text(encoding="utf-8")
        for match in FLAG_RE.finditer(text):
            checked += 1
            if match.group(0) not in known_flags:
                stale.append(f"{doc.relative_to(root)}: unknown CLI flag {match.group(0)}")
        for match in RUNTIME_FIELD_RE.finditer(text):
            name = match.group(1)
            checked += 1
            # Constructor-style matches can catch methods (``.replace``,
            # ``.without_affinity``) — accept any real attribute there,
            # but a dotted *field-looking* name must be a field or method.
            if name not in known_fields and not _is_runtime_attr(root, name):
                stale.append(
                    f"{doc.relative_to(root)}: unknown RuntimeConfig field {name!r}"
                )
    return checked, stale


def _is_runtime_attr(root: Path, name: str) -> bool:
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.parallel.config import RuntimeConfig

        return hasattr(RuntimeConfig, name)
    finally:
        sys.path.pop(0)


def check(root: Path) -> int:
    links_checked, broken = check_links(root)
    mentions_checked, stale = check_mentions(root)
    failures = 0
    if broken:
        failures += len(broken)
        print("Broken documentation links:")
        for entry in broken:
            print(f"  {entry}")
    if stale:
        failures += len(stale)
        print("Stale knob mentions (flag/field no longer exists):")
        for entry in stale:
            print(f"  {entry}")
    if failures:
        return 1
    print(
        f"docs check OK ({links_checked} relative links resolved, "
        f"{mentions_checked} flag/field mentions verified)"
    )
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(check(root))
