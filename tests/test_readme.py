"""The README's Library example runs as written and gives what it shows."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    noise = [f"noi{i:02d}" for i in range(1, 17)]
    assert namespace["m"] == 3
    assert sorted(namespace["report"].best_fit.removed_sensors) == noise
    assert capsys.readouterr().out == f"3 {noise}\n"
