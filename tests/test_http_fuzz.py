"""Property tests for the one request parser, :func:`repro.http.read_request`.

Whatever bytes arrive — arbitrary heads, any ``Content-Length`` text, a
request cut off at any byte — parsing ends in a :class:`Request`, an
:class:`HttpError` carrying a 4xx, or ``None`` for a clean EOF.  Nothing
else may escape into the connection loop.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http import HttpError, Request, read_request

MAX_BODY = 64


async def _outcome(raw: bytes):
    reader = asyncio.StreamReader(limit=1024)
    reader.feed_data(raw)
    reader.feed_eof()
    try:
        return await read_request(reader, MAX_BODY)
    except HttpError as exc:
        assert 400 <= exc.status < 500, (exc.status, exc.message, raw)
        return exc


def _outcomes(prefixes: list[bytes]) -> list:
    async def run():
        return [await _outcome(raw) for raw in prefixes]

    return asyncio.run(run())


def _allowed(outcome) -> bool:
    return outcome is None or isinstance(outcome, (Request, HttpError))


header_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=20
)
lengths = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["", " 3", "+3", "3_0", "0x10", "1e3", "٣", "²", "-0"]),
    header_text,
)


@st.composite
def requests(draw) -> bytes:
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]) | header_text)
    target = draw(st.sampled_from(["/", "/compress?eb=1e-3", "/a/%2F/b", "//x", "http://[::1"])
                  | header_text)
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", ""]))
    lines = [f"{method} {target} {version}"]
    if draw(st.booleans()):
        lines.append(f"Content-Length: {draw(lengths)}")
    if draw(st.booleans()):
        lines.append("Transfer-Encoding: chunked")
    lines += draw(st.lists(st.tuples(header_text, header_text).map(": ".join), max_size=3))
    if draw(st.booleans()):
        lines.append(draw(header_text))  # maybe a line with no colon
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")
    return head + draw(st.binary(max_size=2 * MAX_BODY))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes(raw):
    assert all(_allowed(o) for o in _outcomes([raw, raw + b"\r\n\r\n"]))


@settings(max_examples=150, deadline=None)
@given(requests())
def test_truncation_at_every_byte(raw):
    outcomes = _outcomes([raw[:cut] for cut in range(len(raw) + 1)])
    assert all(_allowed(o) for o in outcomes)
    assert outcomes[0] is None  # nothing sent: a clean EOF, not an error
    full = outcomes[-1]
    if isinstance(full, Request) and "content-length" in full.headers:
        assert len(full.body) == int(full.headers["content-length"]) <= MAX_BODY


@settings(max_examples=150, deadline=None)
@given(lengths)
def test_content_length_values(length):
    raw = f"POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + b"b" * 8
    (outcome,) = _outcomes([raw])
    seen = length.encode().decode("latin-1").strip()  # what the server decodes
    valid = seen.isascii() and seen.isdigit()
    if not valid:
        assert isinstance(outcome, HttpError) and outcome.status == 400
    elif int(seen) > MAX_BODY:
        assert isinstance(outcome, HttpError) and outcome.status == 413
    elif int(seen) > 8:
        assert isinstance(outcome, HttpError) and outcome.status == 400  # cut off
    else:
        assert isinstance(outcome, Request) and outcome.body == b"b" * int(seen)
