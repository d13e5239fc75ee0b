"""The README's library example runs as written."""

import re
from pathlib import Path

from icsheaf.simplicial import SimplicialComplex

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    try:
        exec(compile(block, str(README), "exec"), scope)
    finally:
        SimplicialComplex.up_set.cache_clear()
    K, star = scope["K"], scope["star"]
    assert star.ic.domain == frozenset(K.up_set(K.id_of([0])))
    assert star.ic.stalk_cohomology(K.id_of([0])) == \
        scope["bundle"].ic.stalk_cohomology(K.id_of([0]))
    assert scope["tower"].intermediates[-1] is scope["tower"].ic
