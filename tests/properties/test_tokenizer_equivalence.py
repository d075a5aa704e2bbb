"""The regex scanner of the term codec ≡ the seed's hand-written tokenizer.

``_SeedTokenizer`` below is a frozen copy of the character-by-character
tokenizer the term codec had before the single precompiled scanner
(``repro.terms.parser._scan``) replaced it.  It is the oracle here, the way
the naive evaluator is the oracle of the evaluators.  On every generated
text both give the same ``(kind, value, position, line)`` stream, or the
same :class:`ParseError` message, position and line.  ``_SeedDataParser``
freezes the seed's recursive data-term grammar the same way, as the oracle
of ``_Parser.parse_data`` over the new tokens; and the rule-language parser
runs over both token streams.

Two differences are deliberate, and each is checked rather than skipped:

- *Non-decimal digits.*  The seed read any ``str.isdigit`` character as a
  number digit (``²``, ``①``), so its parser raised ``ValueError`` from
  ``int()``/``float()``.  The scanner reads only decimal digits; on such
  texts every parse raises :class:`ParseError` instead.
- *Newlines inside a back-quoted label.*  The seed did not count them, so
  every later line number was short by that many.  Lines after such a
  label are compared with the true line.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core.rulesets import RuleSet
from repro.errors import ParseError
from repro.lang import parse_program
from repro.terms import Data, parse_construct, parse_data, parse_query
from repro.terms import parser as term_parser

# ---------------------------------------------------------------------------
# The oracle: the seed tokenizer, frozen (do not edit)
# ---------------------------------------------------------------------------

_PUNCT = frozenset("{}[](),@^*:;")


@dataclass(frozen=True)
class _SeedToken:
    kind: str  # ident, string, number, punct, cmp, arrow, eq, end
    value: str
    position: int
    line: int


class _SeedTokenizer:
    """Hand-written tokenizer shared by all three term parsers."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._line = 1

    def tokens(self) -> list[_SeedToken]:
        out = []
        while True:
            token = self._next()
            out.append(token)
            if token.kind == "end":
                return out

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._pos, self._line)

    def _next(self) -> _SeedToken:
        text = self._text
        while self._pos < len(text):
            ch = text[self._pos]
            if ch == "\n":
                self._line += 1
                self._pos += 1
            elif ch.isspace():
                self._pos += 1
            elif ch == "#":  # comment to end of line
                while self._pos < len(text) and text[self._pos] != "\n":
                    self._pos += 1
            else:
                break
        if self._pos >= len(text):
            return _SeedToken("end", "", self._pos, self._line)
        start, line = self._pos, self._line
        ch = text[start]
        two = text[start : start + 2]
        if two == "->":
            self._pos += 2
            return _SeedToken("arrow", "->", start, line)
        if two in ("==", "!=", "<=", ">="):
            self._pos += 2
            return _SeedToken("cmp", two, start, line)
        if ch in "<>":
            self._pos += 1
            return _SeedToken("cmp", ch, start, line)
        if ch == "=":
            self._pos += 1
            return _SeedToken("eq", "=", start, line)
        if ch in _PUNCT:
            self._pos += 1
            return _SeedToken("punct", ch, start, line)
        if ch == '"':
            return self._string(start, line)
        if ch == "`":
            return self._quoted_ident(start, line)
        if ch.isdigit() or (ch == "-" and start + 1 < len(text) and text[start + 1].isdigit()):
            return self._number(start, line)
        if ch.isalpha() or ch == "_":
            return self._ident(start, line)
        raise self._error(f"unexpected character {ch!r}")

    def _string(self, start: int, line: int) -> _SeedToken:
        text = self._text
        pos = start + 1
        parts: list[str] = []
        while pos < len(text):
            ch = text[pos]
            if ch == '"':
                self._pos = pos + 1
                return _SeedToken("string", "".join(parts), start, line)
            if ch == "\\":
                if pos + 1 >= len(text):
                    break
                escape = text[pos + 1]
                mapped = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}.get(escape)
                if mapped is None:
                    raise ParseError(f"bad escape \\{escape}", pos, line)
                parts.append(mapped)
                pos += 2
            else:
                if ch == "\n":
                    self._line += 1
                parts.append(ch)
                pos += 1
        raise ParseError("unterminated string literal", start, line)

    def _quoted_ident(self, start: int, line: int) -> _SeedToken:
        text = self._text
        pos = start + 1
        while pos < len(text) and text[pos] != "`":
            pos += 1
        if pos >= len(text):
            raise ParseError("unterminated back-quoted label", start, line)
        self._pos = pos + 1
        return _SeedToken("qident", text[start + 1 : pos], start, line)

    def _number(self, start: int, line: int) -> _SeedToken:
        text = self._text
        pos = start + 1 if text[start] == "-" else start
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos < len(text) and text[pos] == ".":
            pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
        if pos < len(text) and text[pos] in "eE":
            probe = pos + 1
            if probe < len(text) and text[probe] in "+-":
                probe += 1
            if probe < len(text) and text[probe].isdigit():
                pos = probe
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
        self._pos = pos
        return _SeedToken("number", text[start:pos], start, line)

    def _ident(self, start: int, line: int) -> _SeedToken:
        text = self._text
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_-.:"):
            pos += 1
        # Do not swallow a trailing '.', '-', or ':' (keeps "a.b." and
        # "X :" round-trippable; namespace colons mid-ident are preserved).
        while pos > start and text[pos - 1] in ".-:":
            pos -= 1
        self._pos = pos
        return _SeedToken("ident", text[start:pos], start, line)


class _SeedDataParser:
    """The seed's recursive-descent data-term grammar, frozen."""

    def __init__(self, text: str) -> None:
        self._tokens = _SeedTokenizer(text).tokens()
        self._index = 0

    def _peek(self) -> _SeedToken:
        return self._tokens[min(self._index, len(self._tokens) - 1)]

    def _advance(self) -> _SeedToken:
        token = self._tokens[self._index]
        if token.kind != "end":
            self._index += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> _SeedToken:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {token.value or token.kind!r}",
                             token.position, token.line)
        return self._advance()

    def _expect_label(self) -> str:
        token = self._peek()
        if token.kind not in ("ident", "qident"):
            raise ParseError(f"expected a label, found {token.value or token.kind!r}",
                             token.position, token.line)
        return self._advance().value

    def _at_punct(self, value: str) -> bool:
        token = self._peek()
        return token.kind == "punct" and token.value == value

    def _eat_punct(self, value: str) -> bool:
        if self._at_punct(value):
            self._advance()
            return True
        return False

    def _literal(self):
        token = self._advance()
        if token.kind == "string":
            return token.value
        if token.kind == "number":
            if any(ch in token.value for ch in ".eE"):
                return float(token.value)
            return int(token.value)
        return token.value == "true"

    def _at_literal(self) -> bool:
        token = self._peek()
        return token.kind in ("string", "number") or (
            token.kind == "ident" and token.value in ("true", "false")
        )

    def _attrs(self):
        self._expect("punct", "{")
        pairs = []
        while not self._at_punct("}"):
            key = self._expect_label()
            self._expect("eq")
            pairs.append((key, self._expect("string").value))
            if not self._eat_punct(","):
                break
        self._expect("punct", "}")
        return tuple(sorted(pairs, key=lambda kv: kv[0]))

    def parse_data(self):
        if self._at_literal():
            return self._literal()
        label = self._expect_label()
        attrs = ()
        if self._eat_punct("@"):
            attrs = self._attrs()
        if self._eat_punct("{"):
            return Data(label, self._data_children("}"), False, attrs)
        if self._eat_punct("["):
            return Data(label, self._data_children("]"), True, attrs)
        return Data(label, (), True, attrs)

    def _data_children(self, closing: str):
        children = []
        while not self._at_punct(closing):
            children.append(self.parse_data())
            if not self._eat_punct(","):
                break
        self._expect("punct", closing)
        return tuple(children)

    def parse(self):
        term = self.parse_data()
        token = self._peek()
        if token.kind != "end":
            raise ParseError(f"trailing input: {token.value!r}", token.position, token.line)
        return term


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _seed_stream(text: str) -> "tuple[list[_SeedToken], ParseError | None]":
    """The seed's tokens up to its end token or its error."""
    tokenizer = _SeedTokenizer(text)
    tokens: list[_SeedToken] = []
    try:
        while not tokens or tokens[-1].kind != "end":
            tokens.append(tokenizer._next())
    except ParseError as exc:
        return tokens, exc
    return tokens, None


def _true_line(seed_tokens: list[_SeedToken], position: int, line: int) -> int:
    """The seed's *line* at *position*, plus the newlines it did not count
    inside back-quoted labels before it."""
    return line + sum(token.value.count("\n") for token in seed_tokens
                      if token.kind == "qident" and token.position < position)


def _has_malformed_number(seed_tokens: list[_SeedToken]) -> bool:
    """Whether the seed read a number that ``float()`` cannot (the seed
    parser's ValueError cases)."""
    for token in seed_tokens:
        if token.kind == "number":
            try:
                float(token.value)
            except ValueError:
                return True
    return False


def _error_key(exc: ParseError) -> tuple[str, int, int]:
    message = str(exc)
    prefix = f"line {exc.line}: "
    if message.startswith(prefix):
        message = message[len(prefix):]
    return message, exc.position, exc.line


def _outcome(parse, text: str):
    """What *parse* does with *text*: its result, or its error."""
    try:
        return ("ok", parse(text))
    except ParseError as exc:
        return ("ParseError",) + _error_key(exc)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def _seed_scan(text: str) -> list[tuple[str, str, int]]:
    """The seed's tokens in the scanner's shape; its errors at true lines."""
    tokens, error = _seed_stream(text)
    if error is not None:
        message, position, line = _error_key(error)
        raise ParseError(message, position, _true_line(tokens, position, line))
    return [(token.kind, token.value, token.position) for token in tokens]


def _program(text: str) -> list:
    """``parse_program`` with rule sets (no ``__eq__``) made comparable."""
    return [("ruleset", item.name, [(name, rule) for name, rule, _ in item.qualified()])
            if isinstance(item, RuleSet) else item
            for item in parse_program(text)]


def _through_seed_tokens(parse, text: str):
    with mock.patch.object(term_parser, "_scan", _seed_scan):
        return _outcome(parse, text)


# ---------------------------------------------------------------------------
# Generated text
# ---------------------------------------------------------------------------

FRAGMENTS = [
    # punctuation and operators, whole and broken
    "{", "}", "[", "]", "{{", "}}", "[[", "]]", "(", ")", ",", "@", "^", "*",
    ":", ";", "->", "-", "==", "!=", "<=", ">=", "<", ">", "=", "!", ".", "+",
    # whitespace, comments, line breaks
    " ", "  ", "\n", "\t", "\r\n", "\x0b", "\x1c", " ", " ",
    "# comment\n", "#", "# trailing",
    # identifiers and keywords
    "a", "f", "var", "X", "desc", "without", "optional", "default", "all",
    "order", "by", "true", "false", "re", "_x", "a.b", "x-y", "ns:t", "a.",
    "b-", "c:", "a.b.", "q-1", "été", "ß", "Ωmega", "日本",
    # numbers, decimal and not
    "0", "1", "-7", "3.25", "1e3", "1e", "1.", "2E-4", "-0.5e+2", "٣", "١٢",
    "²", "x²", "1²", "-²", "1e²", "½", "Ⅻ", "①",
    # strings with good and bad escapes
    '"', '"ok"', '""', '"a\\"b"', '"\\n\\t\\r\\\\"', '"\\q"', '"x\\', '"a\nb"',
    '"unterminated', "\\", '"]"', '"}"', '","', '"@"',
    # back-quoted labels
    "`", "``", "`var`", "`a b`", "`x\ny`", "`\n`",
]

TEXTS = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)),
    max_size=14,
).map("".join)

# Structured data text: mostly well formed, with attributes and nesting.
DATA_TEXTS = st.recursive(
    st.sampled_from(['1', '-2.5', '"s"', 'true', 'leaf', '`var`', '"a\\"b"', "٣",
                     '"]"', '"}"', '","', "`]`"]),
    lambda inner: st.tuples(
        st.sampled_from(["a", "b-c", "`x y`", "ns:d"]),
        st.sampled_from(["", ' @{k="v"}', ' @{k="v", `j`="w",}', " @{}"]),
        st.sampled_from(["[]", "{}"]),
        st.lists(inner, max_size=3),
        st.sampled_from([", ", ",\n  ", " # c\n, ", ",", " "]),
        st.booleans(),
    ).map(lambda t: t[0] + t[1] + t[2][0] + t[4].join(t[3])
          + ("," if t[5] else "") + t[2][1]),
    max_leaves=8,
)

RULES = [
    'RULE a ON go DO RAISE TO "http://x.example" out{}',
    'RULE flight ON WITHIN 2.0 ( cancel{{ f[var F] }} THEN NOT rebook{{ f[var F] }} )'
    ' DO RAISE TO "http://agent.example" act{ var F }',
    'RULE stock FIRST ON AGG avg var P OF stock{{ p[var P] }} LAST 5 INTO var A RISE 5.0'
    ' DO PERSIST note{ var A } INTO "http://n.example/log" ROOT notes',
    'RULE seq ON ( a AND b ) THEN c OR d'
    ' IF IN "http://n.example/d" : doc{{ q[var Q] }} AND var Q >= 3'
    ' DO SEQUENCE REPLACE q[var Q] IN "http://n.example/d" BY q[add(var Q, 1)]'
    ' ALSO TRY DELETE old FROM "http://n.example/d"'
    ' ELSETRY RAISE TO "http://x.example" warn{} END END'
    ' ELSE WHEN TRUE THEN PUT "http://n.example/flag" f{} END',
    'RULE counted ON COUNT 3 OF outage{{ s[var S] }} WITHIN 60.0 BY [S]'
    ' DO CALL page(WHO = var S)',
    'RULE t1-2-3 ON stock @{sym="S1", venue="V2"}{{ price[var P], vol[var V] }}'
    ' IF var P > 20 DO RAISE TO "http://sink.example" alert{ rule["t1-2-3"], price[var P] }',
    'PROCEDURE notify(WHO) RAISE TO "http://mail.example" mail{ var WHO }'
    ' RULESET shop RULE a ON go DO CALL notify(WHO = "franz") END',
    'RULE q ON e{{ desc x[[var X -> y{ z }]], without w, optional o default 0 }}'
    ' DO INSERT all item[var X] order by [X] INTO "http://a.example" AT list START',
]

SEPARATORS = [" ", "\n", "  ", "\t", " # note\n", "\n\n"]


@st.composite
def rule_texts(draw) -> str:
    """A known-good program, re-spaced, then (usually) mutated once."""
    words = draw(st.lists(st.sampled_from(RULES), min_size=1, max_size=3))
    text = " ".join(words).split(" ")
    text = "".join(word + draw(st.sampled_from(SEPARATORS)) for word in text)
    mutation = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if mutation == "none" or not text:
        return text
    at = draw(st.integers(0, len(text) - 1))
    piece = draw(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=2)))
    if mutation == "insert":
        return text[:at] + piece + text[at:]
    if mutation == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + piece + text[at + 1:]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _assert_same_stream(text: str) -> None:
    seed_tokens, seed_error = _seed_stream(text)
    try:
        tokens = term_parser._scan(text)
        error = None
    except ParseError as exc:
        tokens, error = None, exc
    if _has_malformed_number(seed_tokens):
        # The seed's ValueError cases: every parse now fails as a ParseError.
        for parse in (parse_data, parse_query, parse_construct, parse_program):
            assert _outcome(parse, text)[0] == "ParseError"
        return
    if seed_error is not None:
        assert error is not None, f"scanner accepted {text!r}; seed: {seed_error}"
        message, position, line = _error_key(seed_error)
        assert _error_key(error) == (message, position,
                                     _true_line(seed_tokens, position, line))
        return
    assert error is None, f"scanner rejected {text!r}: {error}"
    expected = [(t.kind, t.value, t.position, _true_line(seed_tokens, t.position, t.line))
                for t in seed_tokens]
    got = [(kind, value, position, term_parser._line(text, position))
           for kind, value, position in tokens]
    assert got == expected


@given(TEXTS)
@settings(max_examples=600, deadline=None)
def test_scanner_matches_seed_tokenizer(text):
    _assert_same_stream(text)


@given(DATA_TEXTS)
@settings(max_examples=200, deadline=None)
def test_scanner_matches_seed_tokenizer_on_data_text(text):
    _assert_same_stream(text)


@given(st.one_of(TEXTS, DATA_TEXTS))
@settings(max_examples=400, deadline=None)
# Strings that spell punctuation must never act as punctuation.
@example('a[1 ","]')
@example('a["]"]')
@example('a{"}", 1}')
@example('a "@"')
@example('a "["1]')
def test_parse_data_matches_seed_grammar(text):
    """``parse_data`` over the scanner's tokens ≡ the seed's data grammar."""
    seed_tokens, _ = _seed_stream(text)
    got = _outcome(parse_data, text)
    seed = _outcome(lambda t: _SeedDataParser(t).parse(), text)
    if seed[0] == "ParseError":
        _, message, position, line = seed
        seed = ("ParseError", message, position, _true_line(seed_tokens, position, line))
    if seed[0] == "TermError" or _has_malformed_number(seed_tokens):
        # Data("") of an empty back-quoted label; the ValueError cases.
        assert got[0] == "ParseError"
    else:
        assert got == seed


@given(st.one_of(TEXTS, DATA_TEXTS))
@settings(max_examples=300, deadline=None)
def test_term_parsers_agree_over_both_token_streams(text):
    seed_tokens, _ = _seed_stream(text)
    if _has_malformed_number(seed_tokens):
        return  # covered by test_scanner_matches_seed_tokenizer
    for parse in (parse_data, parse_query, parse_construct):
        assert _outcome(parse, text) == _through_seed_tokens(parse, text)


@given(rule_texts())
@settings(max_examples=300, deadline=None)
def test_parse_program_agrees_over_both_token_streams(text):
    _assert_same_stream(text)
    seed_tokens, _ = _seed_stream(text)
    if _has_malformed_number(seed_tokens):
        return
    assert _outcome(_program, text) == _through_seed_tokens(_program, text)


def test_rule_templates_parse():
    """The mutation base is well formed, so unmutated draws succeed."""
    for source in RULES:
        assert _through_seed_tokens(_program, source) == ("ok", _program(source))


def test_seed_line_undercount_is_the_only_line_difference():
    text = "a[`x\ny`,\n!]"
    _, seed_error = _seed_stream(text)
    assert seed_error.line == 2  # the seed missed the newline in the label
    try:
        term_parser._scan(text)
    except ParseError as exc:
        assert (exc.position, exc.line) == (9, 3)
    else:  # pragma: no cover - the scanner must reject "!"
        raise AssertionError("scanner accepted '!'")

