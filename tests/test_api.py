"""The public surface: the package's exported names and the README example."""

from pathlib import Path

import opendicke

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    assert len(set(opendicke.__all__)) == len(opendicke.__all__)
    for name in opendicke.__all__:
        assert hasattr(opendicke, name), name


def test_readme_python_api_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README} (Python API)", "exec"), {})
