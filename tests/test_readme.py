"""The README's library sketch runs as written."""

import re
from pathlib import Path

from twirlsim import check_density_matrix

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    check_density_matrix(namespace["rho_s"])
