"""The mutation catalogue stays applicable: each entry's text to mutate
occurs exactly once in its file, so a refactor that moves or rewrites
that text fails here, in tier-1, rather than midway through a full
mutation run (``python3 tests/mutation/run.py``)."""
import importlib.util
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent / "mutation" / "run.py"


def _load_runner():
    spec = importlib.util.spec_from_file_location("cyclestat_mutation_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    # The runner's dataclass resolves its postponed annotations through
    # sys.modules, so the module must be registered before it runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


runner = _load_runner()


@pytest.mark.parametrize("mutant", runner.CATALOGUE, ids=lambda m: m.name)
def test_text_to_mutate_occurs_once(mutant):
    text = (runner.ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1, mutant.path
