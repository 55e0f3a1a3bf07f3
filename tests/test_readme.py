"""The Python example of README.md runs as written."""

import re
from pathlib import Path

from shishkinfem import Region

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["report"].relative_residual <= 1e-10
    assert ns["x_layer_error"] == ns["cell"][1e-6, 32, Region.LAYER_X]
    assert ns["x_layer_rate"] > 0.0
