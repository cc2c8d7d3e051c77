"""The package surface: each module's `__all__`, and the README's examples."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qed_decoherence

MODULES = ["qed_decoherence", *(f"qed_decoherence.{m.name}"
                                for m in pkgutil.iter_modules(qed_decoherence.__path__))]
README = Path(__file__).resolve().parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("name", MODULES)
def test_all_is_defined_and_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__)) > 0
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_example_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})
