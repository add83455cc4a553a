import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_stated_answers(capsys):
    """README's python block runs as written and prints what its comments
    say: True (the dual numbers' Jordan-block module is certified rigid),
    then 0 (its degree-2 cohomology)."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "True\n0\n"
