"""Token budget of the package modules.

A module imported without a bytecode cache (``PYTHONDONTWRITEBYTECODE=1``,
as the benchmark runs) is compiled from source, and CPython's parser keeps
its tokens in an array whose capacity doubles at each power of two.  When
``cli.py`` first grew past 4,096 tokens, that doubling alone raised the
analytic52 ``peak_rss_mb`` by about 0.2 MiB.  So ``cli.py`` stays at or
under 4,096 tokens and no module goes past 8,192.  Tokens are counted by
``tokenize``, leaving out comments, non-logical newlines and the encoding
marker.
"""

import tokenize
from pathlib import Path

import pytest

import opfrob

MODULES = sorted(Path(opfrob.__file__).parent.glob("*.py"))
LIMITS = {"cli.py": 4096}
LIMIT = 8192
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def tokens(path) -> int:
    with open(path, "rb") as fh:
        return sum(t.type not in SKIPPED
                   for t in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_within_its_token_budget(path):
    assert tokens(path) <= LIMITS.get(path.name, LIMIT)
