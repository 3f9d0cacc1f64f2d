"""The README's library quickstart runs as written, and its claims hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs_and_its_equality_comments_hold():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    claims = []
    for line in block.splitlines():
        expr, sep, claim = line.partition("# equals ")
        if sep:
            assert eval(expr, namespace) == eval(claim, namespace), line
            claims.append((expr.strip(), claim.strip()))
    assert ('adjacency_matrix(g).power(3)', 'walk_matrix(g, "V", "V", 6)') in claims
