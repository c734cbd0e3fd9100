"""The README's "A quick taste" block runs and prints what its `# ->`
comments say."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_quick_taste_prints_its_comments(capsys):
    text = README.read_text()
    (block,) = re.findall(r"A quick taste:\n\n```python\n(.*?)```", text, re.S)
    # a comment's first field is the output; a remark after two spaces is not
    expected = [line[len("# -> "):].split("  ")[0] for line in block.splitlines()
                if line.startswith("# -> ")]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected == ["2*q", "['1']"]
