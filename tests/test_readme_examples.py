"""The JSON input examples in README.md load and run through the CLI.

README shows one document per input format, in the order --algebra, --lie,
--cover; each is written to a file and run through the command that reads
that format.
"""

import json
import re
from pathlib import Path

import pytest

from exacthom.cli import EXIT_PASS, main
from exacthom.lie_homology import lie_algebra_from_json, sl2_q

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = [["homology", "hochschild", "--algebra"],
            ["homology", "ce", "--lie"],
            ["verify", "cech", "--cover"]]


def readme_json_blocks():
    return re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S)


def test_readme_has_one_json_example_per_input_format():
    assert len(readme_json_blocks()) == len(COMMANDS)


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[c[-1] for c in COMMANDS])
def test_readme_example_runs(index, tmp_path):
    path = tmp_path / "example.json"
    path.write_text(readme_json_blocks()[index])
    out = tmp_path / "out.json"
    argv = COMMANDS[index] + [str(path), "--json", str(out)]
    assert main(argv) == EXIT_PASS
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_readme_lie_example_is_sl2(tmp_path):
    obj = json.loads(readme_json_blocks()[1])
    assert lie_algebra_from_json(obj).bracket == sl2_q().bracket
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    assert main(["homology", "ce", "--lie", str(path), "--json",
                 str(out)]) == EXIT_PASS
    assert json.loads(out.read_text())["report"]["betti"] == [1, 0, 0, 1]
