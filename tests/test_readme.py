import re
from pathlib import Path

import numpy as np

from qexpect import dec_evaluate_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs_and_its_two_series_agree():
    # the first python block of the README, run as written
    snippet = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    scope = {}
    exec(compile(snippet, str(README), "exec"), scope)
    full, block = scope["trace"], dec_evaluate_grid(scope["series"], scope["trace"].times)
    assert block.labels == full.labels == ("ip",)
    assert np.max(np.abs(block.values - full.values)) <= 1e-6 * np.max(np.abs(full.values))
