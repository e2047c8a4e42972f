"""The mutation sweep's mutants still apply: each one's old text occurs
exactly once in its file, so a refactor that moves the text shows here and
not only when ``tools/mutants.py`` next runs.  The sweep leaves this file
out of its runs, since every mutant removes its own old text."""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("mutants",
                                               TOOLS / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m[0])
def test_mutant_text_occurs_once(mutant):
    assert mutants._check(mutant) == ""
