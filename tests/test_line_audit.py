"""``tests/line_audit.py`` reports from the module texts it read before the run."""

from __future__ import annotations

import sys

import pytest

import line_audit


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A one-module package tree in place of ``src/jetfields/``, with the
    audit's own check that the package is not imported yet satisfied."""
    src = tmp_path / "src" / "jetfields"
    src.mkdir(parents=True)
    module = src / "maps.py"
    module.write_text("x = 1\n")
    monkeypatch.setattr(line_audit, "ROOT", tmp_path)
    monkeypatch.setattr(line_audit, "SRC", src)
    monkeypatch.delitem(sys.modules, "jetfields")
    return module


def test_a_tree_that_stays_put_is_reported(tree, monkeypatch, capsys):
    monkeypatch.setattr(line_audit, "traced_run", lambda argv: (0, {str(tree): {1}}))
    assert line_audit.main([]) == 0
    assert "0 executable lines never run, 0 of them not known" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["change", "add", "remove"])
def test_a_file_edited_during_the_run_stops_the_audit(tree, monkeypatch, edit):
    def run(argv):
        if edit == "change":
            tree.write_text("\nx = 1\n")
        elif edit == "add":
            (tree.parent / "new.py").write_text("y = 2\n")
        else:
            tree.unlink()
        return 0, {str(tree): {1}}

    monkeypatch.setattr(line_audit, "traced_run", run)
    name = "new.py" if edit == "add" else "maps.py"
    with pytest.raises(SystemExit, match=f"^line_audit: src/jetfields/{name} changed during"):
        line_audit.main([])
