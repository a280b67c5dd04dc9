"""Documentation hygiene, enforced.

Three invariants the docs layer depends on:

* every public module under ``src/repro/`` carries a module docstring (the
  architecture guide links into them);
* every CLI subcommand and every CLI flag is registered with help text,
  and the subcommand lists in the ``repro.cli`` docstring and
  ``docs/architecture.md`` match the registered ones;
* every repo-relative file path referenced from ``README.md`` and
  ``docs/*.md`` exists — docs that point at deleted files are worse than no
  docs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

PUBLIC_MODULES = sorted(
    p
    for p in SRC.rglob("*.py")
    if not any(part.startswith("_") and part != "__init__.py" for part in p.parts)
)


class TestModuleDocstrings:
    def test_found_the_tree(self):
        assert len(PUBLIC_MODULES) > 40  # the package, not an empty glob

    @pytest.mark.parametrize(
        "path", PUBLIC_MODULES, ids=[str(p.relative_to(SRC)) for p in PUBLIC_MODULES]
    )
    def test_module_has_docstring(self, path):
        tree = ast.parse(path.read_text())
        doc = ast.get_docstring(tree)
        assert doc and doc.strip(), f"{path.relative_to(REPO)} lacks a module docstring"


NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven",
                "eight", "nine", "ten", "eleven", "twelve", "thirteen",
                "fourteen", "fifteen")


class TestCliHelp:
    def subparsers(self):
        parser = build_parser()
        actions = [
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        ]
        assert len(actions) == 1
        return parser, actions[0]

    def test_every_subcommand_has_help(self):
        _, sub = self.subparsers()
        registered = {c.dest for c in sub._choices_actions}
        assert registered == set(sub.choices), "subcommand registered without help="
        for choice in sub._choices_actions:
            assert choice.help and choice.help.strip(), f"{choice.dest} has empty help"

    def test_every_flag_has_help(self):
        _, sub = self.subparsers()
        for name, subparser in sub.choices.items():
            for action in subparser._actions:
                if action.option_strings == ["-h", "--help"]:
                    continue
                # Positionals and flags alike must explain themselves unless
                # their name plus choices already do (argparse prints those).
                if action.help is None and not action.choices:
                    pytest.fail(
                        f"'{name}' option {action.option_strings or action.dest} "
                        "has no help text"
                    )

    def test_documented_commands_match_registered(self):
        import repro.cli as cli

        _, sub = self.subparsers()
        for name in sub.choices:
            assert f"``{name}``" in cli.__doc__, (
                f"subcommand {name!r} missing from the repro.cli module docstring"
            )

    def test_architecture_lists_the_registered_commands(self):
        """docs/architecture.md names the subcommands by hand twice: in its
        prose ("exposes the ten subcommands (...)") and in the layer
        diagram's ``cli.py`` line.  Both must list ``build_parser``'s, in
        registration order, and the prose must count them."""
        _, sub = self.subparsers()
        names = list(sub.choices)
        text = (REPO / "docs" / "architecture.md").read_text()
        prose = re.search(r"exposes the (\w+) subcommands\s+\(([^)]*)\)", text)
        assert prose, "docs/architecture.md no longer says which subcommands cli.py exposes"
        assert prose.group(1) == NUMBER_WORDS[len(names)], prose.group(0)
        assert re.findall(r"`(\w+)`", prose.group(2)) == names, prose.group(0)
        diagram = re.search(r"cli\.py\s+\(([^)]*)\)", text)
        assert diagram, "docs/architecture.md's layer diagram lost its cli.py line"
        assert re.findall(r"\w+", diagram.group(1)) == names, diagram.group(0)


def referenced_paths(markdown: str):
    """Repo-relative paths a markdown file points at (links + code spans)."""
    refs = set()
    for target in re.findall(r"\]\(([^)#]+)\)", markdown):
        if "://" not in target:
            refs.add(target.strip())
    for span in re.findall(r"`([^`\n]+)`", markdown):
        span = span.strip()
        if re.fullmatch(r"(src|docs|tests|benchmarks|examples)/[\w./\-]+\.\w+", span):
            refs.add(span)
    return sorted(refs)


DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])


class TestDocReferences:
    def test_doc_layer_exists(self):
        names = {p.name for p in DOC_FILES}
        assert {"README.md", "architecture.md", "paper_map.md", "engine.md",
                "benchmarks.md"} <= names

    @pytest.mark.parametrize("doc", DOC_FILES, ids=[p.name for p in DOC_FILES])
    def test_referenced_files_exist(self, doc):
        base = doc.parent
        missing = []
        for ref in referenced_paths(doc.read_text()):
            # Links resolve relative to the doc; bare code spans to the repo.
            if not ((base / ref).exists() or (REPO / ref).exists()):
                missing.append(ref)
        assert not missing, f"{doc.name} references missing files: {missing}"

    def test_readme_quickstart_names_real_commands(self):
        readme = (REPO / "README.md").read_text()
        parser = build_parser()
        sub = [a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"][0]
        for command in ("run", "sweep", "survey", "worker"):
            assert command in sub.choices
            assert command in readme
