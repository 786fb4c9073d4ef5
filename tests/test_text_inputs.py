"""The record reader that every text input goes through. Config, RTTM, UEM
and `.vad` files end lines alike, skip blank and comment lines alike, take a
form feed or vertical tab inside a line as a field separator, and name
`<file>:<line>` in their errors."""

import re

import pytest

from diarkit.config import load_config, parse_file
from diarkit.errors import ConfigError, FormatError
from diarkit.metrics import parse_rttm, parse_uem
from diarkit.vad import read_vad_file

# kind: (reader of a path, comment prefix, two records whose fields are
# separated by single spaces, a bad record, the error it raises)
KINDS = {
    "config": (
        load_config, "#", ["vad_threshold = 0.6", "merge_threshold = 0.7"],
        "median_taps = eleven", ConfigError,
    ),
    "rttm": (
        lambda path: parse_file(path, parse_rttm), ";;",
        [
            "SPEAKER rec 1 0.000 2.000 <NA> <NA> a <NA> <NA>",
            "SPEAKER rec 1 1.500 1.000 <NA> <NA> b <NA> <NA>",
        ],
        "SPEAKER rec 1 x0.5 1.0 <NA> <NA> a <NA> <NA>", FormatError,
    ),
    "uem": (
        lambda path: parse_file(path, parse_uem), ";;", ["rec 1 0.0 10.0", "rec 1 20.0 30.0"],
        "rec 1 5.0 3.0", FormatError,
    ),
    "vad": (read_vad_file, "#", ["0.5 2.25", "3.0 4.125"], "3.0 2.0", FormatError),
}

# case: (records, comment, bad record) -> (file text, line number of the
# expected error, or None when the file must read as the records do)
CASES = {
    "crlf": lambda recs, comment, bad: ("\r\n".join(recs) + "\r\n", None),
    "cr": lambda recs, comment, bad: ("\r".join(recs), None),
    "form-feed": lambda recs, comment, bad: ("\n".join(r.replace(" ", "\f") for r in recs), None),
    "vertical-tab": lambda recs, comment, bad: ("\n".join(r.replace(" ", "\v") for r in recs), None),
    "mixed": lambda recs, comment, bad: (
        recs[0].replace(" ", "\f", 1) + "\r\n" + recs[1] + "\r", None
    ),
    "blank-and-comment": lambda recs, comment, bad: (
        "\n".join(["", f"{comment} note", recs[0], " \t ", f"  {comment}{bad}", recs[1], ""]),
        None,
    ),
    "error-lf": lambda recs, comment, bad: ("\n".join([f"{comment} head", "", *recs, bad]), 5),
    "error-crlf": lambda recs, comment, bad: ("\r\n".join(["", *recs, bad, ""]), 4),
    "error-cr": lambda recs, comment, bad: ("\r".join([recs[0], f"{comment}", bad, recs[1]]), 3),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_reader_contract(tmp_path, kind, case):
    read, comment, records, bad, error = KINDS[kind]
    text, bad_line = CASES[case](records, comment, bad)
    path = tmp_path / f"input.{kind}"
    path.write_bytes(text.encode("utf-8"))
    if bad_line is not None:
        with pytest.raises(error, match=f"^{re.escape(str(path))}:{bad_line}: "):
            read(path)
        return
    plain, empty = tmp_path / "plain", tmp_path / "empty"
    plain.write_bytes("".join(r + "\n" for r in records).encode("utf-8"))
    empty.write_bytes(b"")
    assert read(path) == read(plain) != read(empty)
