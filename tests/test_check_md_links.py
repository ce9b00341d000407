"""tools/check_md_links.py: which docs have their code references checked."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_md_links.py"


@pytest.fixture
def checker(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_md_links", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    (tmp_path / "x.py").write_text("pass\n", encoding="utf-8")
    return module


def _problems(checker, name: str, text: str) -> list[str]:
    path = checker.REPO_ROOT / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return checker._check_file(path, {})


def test_stale_code_reference_in_issue_passes(checker):
    assert _problems(checker, "ISSUE.md", "See `x.py:999`.\n") == []


@pytest.mark.parametrize("name", ["README.md", "docs/physics.md"])
def test_stale_code_reference_elsewhere_fails(checker, name):
    problems = _problems(checker, name, "See `x.py:999`.\n")
    assert len(problems) == 1
    assert "outside file" in problems[0]


def test_issue_links_and_anchors_still_checked(checker):
    text = "# Top\n\n[gone](missing.md) and [here](#nowhere)\n"
    problems = _problems(checker, "ISSUE.md", text)
    assert len(problems) == 2
    assert "broken link target" in problems[0]
    assert "missing anchor" in problems[1]
