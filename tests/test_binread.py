from pathlib import Path

import pytest

import maskconv
from maskconv.binread import Reader


class FormatError(ValueError):
    pass


def test_short_read_names_format_part_offset_wanted_and_left():
    r = Reader(bytes(10), FormatError, "demo file")
    r.take(4, "magic")
    with pytest.raises(FormatError, match=r"^demo file: truncated payload at offset 4 \(wanted 7 bytes, 6 left\)$"):
        r.take(7, "payload")
    assert r.offset == 4 and r.left == 6  # a failed read consumes nothing


def test_frombuffer_occurs_only_in_the_reader():
    # every binary format reads its declared sizes through Reader.array
    package = Path(maskconv.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "frombuffer" in p.read_text())
    assert users == ["binread.py"]
