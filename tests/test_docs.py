"""Documentation integrity: links resolve, CLI references exist.

Docs rot silently: a renamed file, a reworded heading or a removed
subcommand leaves README/docs pointing at nothing. This suite makes
that a test failure instead. It checks, over `README.md` and every
`docs/*.md`:

* every relative markdown link resolves to a real file, and every
  `#anchor` (same-file or cross-file) matches a real heading;
* every backticked repo path with a file extension exists;
* every ``python -m repro <subcommand>`` (and ``store``/``campaign``
  verb) named anywhere actually exists in the CLI parser -- introspected
  from :func:`repro.__main__.build_parser`, never from a hand-kept list;
* conversely, every CLI subcommand is documented somewhere.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.__main__ import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

#: ``[text](target)`` inline links, target captured.
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")

#: Backticked repo-relative paths worth existence-checking: contain a
#: slash, end in a source/doc extension, no shell/placeholder noise.
CODE_PATH_RE = re.compile(r"`([A-Za-z0-9_./\-]+\.(?:py|md|json|yml))(?:::[^`]*)?`")

#: ``python -m repro <token>`` with an optional verb for the
#: subcommand-bearing commands.
CLI_RE = re.compile(r"python -m repro\s+([a-z][a-z0-9]*)(?:\s+([a-z][a-z0-9]*))?")


def _headings(path: Path):
    """GitHub-style anchor slugs of every markdown heading in ``path``."""
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        text = line.lstrip("#").strip().replace("`", "")
        slug = re.sub(r"[^a-z0-9 _-]", "", text.lower())
        slugs.add(slug.replace(" ", "-"))
    return slugs


def _links(path: Path):
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        yield from LINK_RE.findall(line)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(doc):
    problems = []
    for target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        base = doc if not path_part else None
        if path_part:
            base = (doc.parent / path_part).resolve()
            if not base.exists():
                problems.append(f"{target}: no such file {path_part}")
                continue
        if anchor and base is not None and base.suffix == ".md":
            if anchor.lower() not in _headings(base):
                problems.append(f"{target}: no heading for #{anchor}")
    assert not problems, f"{doc.name}: " + "; ".join(problems)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_backticked_repo_paths_exist(doc):
    problems = []
    for text in doc.read_text().splitlines():
        for path in CODE_PATH_RE.findall(text):
            if path.startswith(("/", "~", ".")) or "<" in path or "/" not in path:
                continue
            if not (REPO_ROOT / path).exists():
                problems.append(path)
    assert not problems, (
        f"{doc.name} names repo paths that do not exist: "
        + ", ".join(sorted(set(problems)))
    )


def _subparser_choices(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


@pytest.fixture(scope="module")
def cli():
    parser = build_parser()
    commands = _subparser_choices(parser)
    verbs = {
        name: set(_subparser_choices(sub))
        for name, sub in commands.items()
        if _subparser_choices(sub)
    }
    return set(commands), verbs


def test_docs_name_only_real_subcommands(cli):
    commands, verbs = cli
    problems = []
    for doc in DOC_FILES:
        for command, verb in CLI_RE.findall(doc.read_text()):
            if command not in commands:
                problems.append(f"{doc.name}: 'repro {command}'")
            elif verb and command in verbs and verb not in verbs[command]:
                problems.append(f"{doc.name}: 'repro {command} {verb}'")
    assert not problems, (
        "docs reference CLI commands the parser does not define: "
        + "; ".join(problems)
    )


def test_every_subcommand_is_documented(cli):
    commands, _ = cli
    corpus = "\n".join(doc.read_text() for doc in DOC_FILES)
    referenced = {command for command, _ in CLI_RE.findall(corpus)}
    missing = commands - referenced
    assert not missing, (
        f"CLI subcommands never shown in README/docs: {sorted(missing)}"
    )


def test_campaign_cli_matches_dispatch_registry(cli):
    """The executors the docs/CLI talk about are the registered ones."""
    from repro.sweep.dispatch import EXECUTORS

    assert set(EXECUTORS) == {"local", "subprocess", "ssh"}
    _, verbs = cli
    assert verbs.get("campaign") == {"run", "status", "resume"}
    assert verbs.get("store") == {
        "merge", "gc", "verify", "stats", "missing", "export", "import"
    }
