"""Every example script imports and runs end to end against the current
public API.

Each example guards ``main()`` behind ``if __name__ == "__main__"``, so
loading it as a module runs only its imports and top-level definitions: a
public name the examples import cannot be renamed or deleted unnoticed.  The
run test then calls ``main()`` in process, with stdout captured and the
working directory in a fresh temporary folder.  A keyword or name an example
passes that the library no longer accepts fails there, and so does an
example that starts writing files.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


def load_example(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert callable(load_example(path).main)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    load_example(path).main()
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir())
