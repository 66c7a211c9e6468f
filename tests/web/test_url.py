"""Tests for URL parsing, joining, normalization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.url import Url, canonical_key, canonical_url, join_url, parse_url


class TestParse:
    def test_full_url(self):
        url = parse_url("http://snapple.cs.washington.edu:600/mobile/")
        assert url.scheme == "http"
        assert url.host == "snapple.cs.washington.edu"
        assert url.port == 600
        assert url.path == "/mobile/"

    def test_query_and_fragment(self):
        url = parse_url("http://h.com/cgi-bin/rlog?file=x.html#top")
        assert url.path == "/cgi-bin/rlog"
        assert url.query == "file=x.html"
        assert url.fragment == "top"

    def test_file_url(self):
        url = parse_url("file:///home/user/notes.html")
        assert url.scheme == "file"
        assert url.host == ""
        assert url.path == "/home/user/notes.html"

    def test_host_case_folded(self):
        assert parse_url("HTTP://WWW.YAHOO.COM/").host == "www.yahoo.com"

    def test_no_scheme(self):
        url = parse_url("/relative/path.html")
        assert url.scheme == ""
        assert url.path == "/relative/path.html"

    def test_roundtrip_str(self):
        for text in (
            "http://www.att.com/",
            "http://h.com:8080/a/b?q=1",
            "http://h.com/x#frag",
        ):
            assert str(parse_url(text)) == text


class TestNormalize:
    def test_default_port_dropped(self):
        assert parse_url("http://h.com:80/x").normalized() == parse_url(
            "http://h.com/x"
        ).normalized()

    def test_empty_path_becomes_slash(self):
        assert parse_url("http://h.com").normalized().path == "/"

    def test_fragment_dropped(self):
        assert parse_url("http://h.com/x#top").normalized().fragment is None

    def test_nondefault_port_kept(self):
        assert parse_url("http://h.com:600/").normalized().port == 600


class TestJoin:
    BASE = parse_url("http://www.usenix.org/events/index.html")

    def test_absolute_reference_wins(self):
        out = join_url(self.BASE, "http://other.org/x")
        assert out.host == "other.org"

    def test_relative_sibling(self):
        out = join_url(self.BASE, "lisa95.html")
        assert out.path == "/events/lisa95.html"
        assert out.host == "www.usenix.org"

    def test_rooted_path(self):
        assert join_url(self.BASE, "/images/logo.gif").path == "/images/logo.gif"

    def test_dotdot(self):
        assert join_url(self.BASE, "../about.html").path == "/about.html"

    def test_dot(self):
        assert join_url(self.BASE, "./here.html").path == "/events/here.html"

    def test_fragment_only(self):
        out = join_url(self.BASE, "#section2")
        assert out.path == self.BASE.path
        assert out.fragment == "section2"

    def test_query_only(self):
        out = join_url(self.BASE, "?q=1")
        assert out.query == "q=1"

    def test_network_path_reference(self):
        out = join_url(self.BASE, "//mirror.org/events/")
        assert out.scheme == "http"
        assert out.host == "mirror.org"

    def test_trailing_slash_preserved(self):
        assert join_url(self.BASE, "sub/").path == "/events/sub/"

    def test_dotdot_past_root_clamps(self):
        out = join_url(self.BASE, "../../../x.html")
        assert out.path == "/x.html"

    @given(st.sampled_from(["a.html", "../x", "/y", "#f", "?q=2", "b/c.html"]))
    @settings(max_examples=50)
    def test_join_keeps_scheme_and_host_for_relatives(self, ref):
        out = join_url(self.BASE, ref)
        assert out.scheme == "http"
        assert out.host == "www.usenix.org"


#: Text that starts like a URL and goes on in URL punctuation, where
#: plain ``st.text()`` rarely reaches the scheme/authority edge cases.
url_like = st.builds(
    str.__add__,
    st.sampled_from(["", "http:", "HTTP://", "file:", "ftp:", "//", "x://"]),
    st.text(alphabet=" \t\n:/?#.%0189aZ\u0663"),
)


class TestCanonicalUrl:
    @given(st.one_of(st.text(), url_like))
    @settings(max_examples=2000)
    def test_total_and_idempotent(self, text):
        key = canonical_url(text)
        assert canonical_url(key) == key

    @pytest.mark.parametrize("text, key", [
        ("http:x", "http:x"),
        ("file:foo", "file:foo"),
        ("ftp:x", "ftp:x"),
        ("http://a/b #f", "http://a/b"),
        ("http://a:80x", "http://a:80x"),
        ("////x", "////x"),
        ("http: #", "http://"),
        ("HTTP://Site.COM:80/p.html#top", "http://site.com/p.html"),
        ("  http://site.com/p.html  ", "http://site.com/p.html"),
        ("file:///etc/hosts", "file:///etc/hosts"),
    ])
    def test_examples_are_fixed_points(self, text, key):
        assert canonical_url(text) == key
        assert canonical_url(key) == key

    def test_newline_in_fragment_parses(self):
        url = parse_url("http://site.com/p.html#x\ny")
        assert (url.path, url.fragment) == ("/p.html", "x\ny")
        assert canonical_url("http://site.com/p.html#x\ny") \
            == "http://site.com/p.html"

    def test_port_is_ascii_digits_only(self):
        assert canonical_url("http://a:\u0663\u0664/") != canonical_url("http://a:34/")
        assert parse_url("http://a:\u0663\u0664/").port is None

    def test_overlong_port_does_not_raise(self):
        url = parse_url("http://a:" + "9" * 5000 + "/")
        assert url.port is None and url.host == "a"

    def test_canonical_key_tries_the_string_first(self):
        table = {"http://site.com/p.html": 1}
        assert canonical_key(table, "http://site.com/p.html") \
            == "http://site.com/p.html"
        assert canonical_key(table, "HTTP://Site.COM:80/p.html#x") \
            == "http://site.com/p.html"
        assert canonical_key({}, "http://site.com") == "http://site.com/"
