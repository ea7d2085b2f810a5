"""Fixture helpers: feed source snippets through the lint driver."""

import dataclasses
import textwrap

import pytest

from repro.analysis.concurrency import model
from repro.analysis.core import analyze_paths, rules_by_id


def _write_tree(root, files):
    """Materialise ``{dotted.module.name: source}`` as a package tree."""
    root.mkdir(exist_ok=True)
    for module_name, source in files.items():
        parts = module_name.split(".")
        directory = root
        for part in parts[:-1]:
            directory = directory / part
            directory.mkdir(exist_ok=True)
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
        (directory / (parts[-1] + ".py")).write_text(
            textwrap.dedent(source)
        )
    return root


@pytest.fixture
def lint(tmp_path):
    """Lint one snippet as a standalone (package-less) file.

    Returns the violation list; ``rules=`` narrows to specific rule ids
    or pack names.
    """

    def run(source, rules=None, filename="snippet.py"):
        path = tmp_path / filename
        path.write_text(textwrap.dedent(source))
        chosen = rules_by_id(rules) if rules else None
        return analyze_paths([str(path)], chosen)

    return run


@pytest.fixture
def lint_package(tmp_path):
    """Lint a synthetic ``repro``-like package tree.

    ``files`` maps dotted module names (``repro.flash.foo``) to source
    snippets; ``__init__.py`` files are created automatically so module
    names resolve the same way they do in the real tree.
    """

    def run(files, rules=None):
        root = _write_tree(tmp_path / "pkg", files)
        chosen = rules_by_id(rules) if rules else None
        return analyze_paths([str(root)], chosen)

    return run


@pytest.fixture
def package_tree(tmp_path):
    """Write a synthetic package tree and return its root path (str)."""

    def build(files):
        return str(_write_tree(tmp_path / "pkg", files))

    return build


#: Synthetic daemon-task entry the yield-tier snippets define.
SYNTHETIC_GC_TASK = "repro.sched.tasks.background_gc_task"


@pytest.fixture
def gc_task_root(monkeypatch):
    """Add :data:`SYNTHETIC_GC_TASK` to the ``background-gc`` root.

    The shipped table names only real entry points; snippets that model
    a scheduler-driven background task get their root here instead.
    """
    roots = tuple(
        dataclasses.replace(root, qualnames=root.qualnames + (SYNTHETIC_GC_TASK,))
        if root.name == "background-gc"
        else root
        for root in model.TASK_ROOTS
    )
    monkeypatch.setattr(model, "TASK_ROOTS", roots)
    return roots


def rule_ids(violations):
    return [v.rule_id for v in violations]
