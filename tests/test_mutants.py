"""Every named mutant of ``tests/mutants.py`` still applies to the source.

A mutant whose old text no longer occurs exactly once in its file would
otherwise be found stale only by a full run of the mutant runner.
"""

import shutil

import pytest

from mutants import MUTANTS, ROOT, apply


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_applies_to_the_source(name, tmp_path):
    mutant = MUTANTS[name]
    for file in {file for file, _, _ in mutant.edits}:
        (tmp_path / file).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / file, tmp_path / file)
    apply(mutant, tmp_path)
    assert all((ROOT / test).is_file() for test in mutant.tests)
