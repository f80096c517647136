"""Byte-level fuzzing of the input loaders.

A valid sparse file, cluster map, vocab and raw-text file are damaged by a few
random byte replacements, insertions and deletions (bytes that are not UTF-8
included).  Each damaged file must either load or raise a usage error whose
message names ``file:line:`` with a line that exists in the file.
"""

import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xmc.cli import USAGE_ERRORS
from xmc.cluster import ClusterMap
from xmc.corpus import Vocab, build_vocab, load_sparse

VALID = {
    "sparse": b"4 6 3\n0,2 0:0.5 3:1.25\n1 1:1 5:0.5\n2 0:2e-1\n0,1,2 2:1 4:3\n",
    "clusters": b"3 8 3 7\n0 3 5\n1 2 7\n4 6\n",
    "vocab": b"1\ntopic\nword\nlabel\n",
    "text": b"first doc words\nsecond doc\n",
}
LOADERS = {
    "sparse": lambda path: load_sparse(path, require_labels=True),
    "clusters": ClusterMap.load,
    "vocab": Vocab.load,
    "text": build_vocab,
}

# structural bytes of the formats, plus any byte at all
_BYTES = st.binary(min_size=1, max_size=3) | st.sampled_from(
    [bytes([b]) for b in b"0123456789 \n\r,:-.e"] + [b"\xff", b"\xc3", b"\xe2\x82", b"99999999999999999999"]
)
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1 << 16), _BYTES),
                      min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    for op, at, chunk in mutations:
        at %= len(data) + 1
        if op == "insert":
            data = data[:at] + chunk + data[at:]
        elif op == "replace":
            data = data[:at] + chunk + data[at + len(chunk):]
        else:
            data = data[:at] + data[at + len(chunk):]
    return data


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(VALID)), mutations=_MUTATIONS)
# a lone CR or a vertical tab is no line break for the line numbers the messages count
@example(kind="vocab", mutations=[("replace", 2, b"\x0b"), ("replace", 179, b"\r")])
@example(kind="clusters", mutations=[("replace", 7, b"\x0b"), ("replace", 19, b"\x0b"), ("replace", 22, b"x")])
@example(kind="sparse", mutations=[("replace", 5, b"\r"), ("replace", 22, b"\r"), ("replace", 44, b"x")])
def test_damaged_input_loads_or_names_file_and_line(tmp_path, kind, mutations):
    data = _mutate(VALID[kind], mutations)
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(data)
    try:
        LOADERS[kind](path)
    except USAGE_ERRORS as exc:
        found = re.search(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert found, str(exc)
        assert 1 <= int(found.group(1)) <= data.count(b"\n") + 1, str(exc)


def test_valid_inputs_load(tmp_path):
    for kind, data in VALID.items():
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(data)
        LOADERS[kind](path)


def test_crlf_inputs_load_as_lf(tmp_path):
    for kind, data in VALID.items():
        lf, crlf = tmp_path / f"{kind}.lf", tmp_path / f"{kind}.crlf"
        lf.write_bytes(data)
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        assert repr(LOADERS[kind](crlf)) == repr(LOADERS[kind](lf))
