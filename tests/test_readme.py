import json
import re
import shlex
from pathlib import Path

from moddef.cli import main
from moddef.fixtures import fixture_documents

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_stated_answers(capsys):
    """README's python block runs as written and prints what its comments
    say: True (the dual numbers' Jordan-block module is certified rigid),
    then 0 (its degree-2 cohomology)."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "True\n0\n"


def _sh_blocks():
    return re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_command_lines_exit_with_their_stated_codes(tmp_path, monkeypatch, capsys):
    """The command-line walk-through runs as written, in a fresh directory:
    `moddef --fixtures > fixtures.json`, the python heredoc that splits it
    into fixture_A/B/C.json, then every `moddef` line whose comment states
    an exit code must exit with that code."""
    (block,) = [b for b in _sh_blocks() if "moddef --fixtures" in b]
    monkeypatch.chdir(tmp_path)
    (heredoc,) = re.findall(r"<<'EOF'\n(.*?)\nEOF\n", block, re.S)
    checked = 0
    for line in block.splitlines():
        if not line.startswith("moddef "):
            continue
        command, _, comment = line.partition("#")
        args = shlex.split(command)[1:]
        if args[0] == "--fixtures":
            args[args.index(">")] = "--output"
            assert main(args) == 0
            exec(compile(heredoc, str(README), "exec"), {})
            continue
        stated = re.match(r"\s*exit (\d)", comment)
        if stated is None:
            continue
        code = main(args)
        captured = capsys.readouterr()
        assert code == int(stated.group(1)), (line, captured.err)
        assert json.loads(captured.out)["command"] == args[0]
        checked += 1
    assert checked >= 5


def test_readme_integrate_output_is_what_main_writes(tmp_path, capsys):
    """The `$ moddef integrate fixture_A.json` transcript shows, as parsed
    JSON, exactly the result main writes for fixture A."""
    (block,) = [b for b in _sh_blocks() if b.startswith("$ moddef integrate fixture_A.json\n")]
    shown = json.loads(block.split("\n", 1)[1])
    path = tmp_path / "fixture_A.json"
    path.write_text(json.dumps(fixture_documents()["A"]), encoding="utf-8")
    assert main(["integrate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == shown
