"""Tests for CGI query-string handling and the stock scripts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simclock import SimClock
from repro.web.cgi import (
    ClockScript,
    CounterScript,
    FormEchoScript,
    StaticCgiScript,
    encode_query_string,
    parse_query_string,
)
from repro.web.http import Request


class TestParseQueryString:
    def test_simple(self):
        assert parse_query_string("a=1&b=two") == {"a": "1", "b": "two"}

    def test_plus_is_space(self):
        assert parse_query_string("q=mobile+computing") == {
            "q": "mobile computing"
        }

    def test_percent_escapes(self):
        assert parse_query_string("email=x%40y.com") == {"email": "x@y.com"}

    def test_valueless_key(self):
        assert parse_query_string("flag&a=1") == {"flag": "", "a": "1"}

    def test_none_and_empty(self):
        assert parse_query_string(None) == {}
        assert parse_query_string("") == {}

    def test_duplicate_keys_last_wins(self):
        assert parse_query_string("a=1&a=2") == {"a": "2"}

    def test_malformed_percent_left_alone(self):
        assert parse_query_string("a=100%") == {"a": "100%"}
        assert parse_query_string("a=%zz") == {"a": "%zz"}
        # Only "%" plus two ASCII hex digits is an escape: whitespace
        # and non-ASCII digits never reach the hex parser.
        assert parse_query_string("a=%+1") == {"a": "% 1"}
        assert parse_query_string("a=%1 ") == {"a": "%1 "}
        assert parse_query_string("a=%٣٤") == {"a": "%٣٤"}
        assert parse_query_string("a=%01") == {"a": "\x01"}

    def test_overlong_utf8_not_folded(self):
        # %C0%80 is the classic overlong encoding of NUL; a lenient
        # decoder that folds it to "\x00" (or to U+FFFD, colliding with
        # every other bad sequence) opens a smuggling channel.  The
        # invalid bytes must survive as their literal escapes.
        assert parse_query_string("a=%C0%80") == {"a": "%C0%80"}
        assert parse_query_string("a=%C0%AF") == {"a": "%C0%AF"}

    def test_distinct_malformed_sequences_stay_distinct(self):
        decoded = {
            parse_query_string(f"a={esc}")["a"]
            for esc in ("%C0%80", "%C0%AF", "%FF", "%FE%FF", "%ED%A0%80",
                        "%+1", "%1 ", "%01", "%٣٤", "4")
        }
        assert len(decoded) == 10

    def test_invalid_bytes_beside_valid_utf8(self):
        # A valid multi-byte rune next to a stray continuation byte:
        # the rune decodes, the stray byte stays a literal escape.
        assert parse_query_string("a=caf%C3%A9%80") == {"a": "café%80"}

    def test_url_values_pass_through(self):
        params = parse_query_string(
            "action=diff&url=http%3A//site.com/page%3Fq%3D1"
        )
        assert params["url"] == "http://site.com/page?q=1"


_HEX = "0123456789abcdefABCDEF"


def _oracle_unescape(text):
    """The decoding rules read literally, one character at a time."""
    raw = bytearray()
    i = 0
    while i < len(text):
        char = text[i]
        if (char == "%" and i + 2 < len(text) and text[i + 1] in _HEX
                and text[i + 2] in _HEX):
            raw.append(int(text[i + 1:i + 3], 16))
            i += 3
            continue
        raw.extend((" " if char == "+" else char).encode("utf-8"))
        i += 1
    # Each byte that is not part of valid UTF-8 shows as a literal %XX.
    return "".join(
        f"%{ord(c) - 0xDC00:02X}" if 0xDC80 <= ord(c) <= 0xDCFF else c
        for c in raw.decode("utf-8", "surrogateescape")
    )


def _oracle_parse(query):
    out = {}
    for pair in (query or "").split("&"):
        if pair:
            key, _, value = pair.partition("=")
            out[_oracle_unescape(key)] = _oracle_unescape(value)
    return out


#: Query fragments: the separators, hex and non-hex characters, ASCII
#: and non-ASCII text, and whole escapes (valid UTF-8 and not).
_QUERY_PIECES = st.sampled_from(
    list("%+&= ") + list("0aF9g z~.") + ["\u00e9", "\u0663", "\u20ac",
                                         "\U0001F600"]
    + ["%41", "%C3%A9", "%E2%82%AC", "%C0%80", "%FF", "%e9", "%2B",
       "%26", "%3D", "%25"]
)


class TestParseQueryStringOracle:
    @given(st.lists(_QUERY_PIECES, max_size=24).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_oracle(self, query):
        assert parse_query_string(query) == _oracle_parse(query)


class TestEncodeQueryString:
    def test_roundtrip_simple(self):
        params = {"a": "1", "q": "two words", "email": "x@y.com"}
        assert parse_query_string(encode_query_string(params)) == params

    @given(
        st.dictionaries(
            st.text(alphabet="abcXYZ09", min_size=1, max_size=8),
            st.text(max_size=20),
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, params):
        assert parse_query_string(encode_query_string(params)) == params


class TestStockScripts:
    def request(self, url="http://h/cgi-bin/x", method="GET", body=""):
        return Request(method, url, body=body)

    def test_counter_monotone(self):
        script = CounterScript()
        bodies = [script(self.request(), 0).body for _ in range(3)]
        assert len(set(bodies)) == 3

    def test_clock_tracks_time(self):
        script = ClockScript()
        assert script(self.request(), 0).body != script(self.request(), 60).body
        assert script(self.request(), 60).body == script(self.request(), 60).body

    def test_static_is_stable(self):
        script = StaticCgiScript("<P>fixed</P>")
        assert script(self.request(), 0).body == script(self.request(), 999).body

    def test_form_echo_get_and_post_agree(self):
        script = FormEchoScript()
        via_get = script(self.request("http://h/cgi?a=1&b=2"), 0).body
        via_post = script(self.request(method="POST", body="a=1&b=2"), 0).body
        assert via_get == via_post

    def test_form_echo_generation_changes_output(self):
        script = FormEchoScript()
        before = script(self.request("http://h/cgi?a=1"), 0).body
        script.generation += 1
        after = script(self.request("http://h/cgi?a=1"), 0).body
        assert before != after
