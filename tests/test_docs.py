"""README claims that the code can check."""

import json
from pathlib import Path

from attconv.cli import _EXTRA_KEYS
from attconv.model import ModelConfig, TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_table() -> list[tuple[str, str]]:
    """(key, default) of each row of README's configuration table, backticks stripped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        rows.append((key, default))
    return rows


def test_the_readme_configuration_table_lists_every_key_with_its_default():
    defaults = {**ModelConfig().to_json(), **TrainConfig().to_json()}
    table = _config_table()
    assert [key for key, _ in table] == [*defaults, *sorted(_EXTRA_KEYS)]
    for key, default in table:
        if key in defaults:
            assert json.loads(default) == defaults[key], key
        else:  # an extra key has no default: left out, it is not used
            assert default == "none", key
