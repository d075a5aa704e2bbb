"""Textual syntax for data, query, and construct terms.

The syntax follows Xcerpt's look and feel:

- ``f[a, b]`` — ordered data term; ``f{a, b}`` — unordered data term.
- Query children braces select the matching mode: ``f[x]`` ordered total,
  ``f[[x]]`` ordered partial, ``f{x}`` unordered total, ``f{{x}}`` unordered
  partial.  A bare label in a query (``f``) matches a term labelled ``f``
  with *any* children (shorthand for ``f{{}}``); in a data term it denotes a
  leaf element (no children).
- ``var X``, ``var X -> q``, ``desc q``, ``without q``,
  ``optional q default v``, comparisons ``> 5`` / ``== var X``, and regular
  expressions ``re "pat"`` form the remaining query constructs.
- Construct terms use ``var X``, grouping ``all c`` (optionally
  ``all c order [X, Y]``), aggregations ``count(var X)`` etc., and scalar
  functions ``add(var X, 1)``.
- Attributes attach after the label: ``book @{lang="en"} {...}``.
- Labels that collide with keywords (or contain exotic characters) are
  written back-quoted: ``` `var`{...} ```.

:func:`to_text` serialises any term such that parsing the output yields an
equal term (round-trip property, tested with hypothesis); it refuses, with a
:class:`~repro.errors.TermError`, what the text cannot carry.  Malformed text
always raises :class:`~repro.errors.ParseError`.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

from repro.errors import ParseError, TermError
from repro.terms.ast import (
    Agg,
    All,
    Child,
    Compare,
    Construct,
    CTerm,
    Data,
    Desc,
    Fn,
    LabelVar,
    Optional_,
    QTerm,
    Query,
    RegexMatch,
    Var,
    Without,
)

_KEYWORDS = frozenset(
    [
        "var", "desc", "without", "optional", "default", "all", "order",
        "by", "true", "false", "re",
    ]
)

_AGG_FNS = frozenset(["count", "sum", "avg", "min", "max", "first", "last"])


# Pieces the scanner and its error messages share.  An identifier starts
# with a letter or "_" and never ends in ".", "-" or ":" (keeps "a.b." and
# "X :" apart); a string body allows only the escapes ``_UNESCAPE`` knows.
_IDENT_TAIL = r"(?:[\w.:-]*\w)?"
_STRING_BODY = r'[^"\\]*(?:\\[ntr"\\][^"\\]*)*'

# One master pattern: skip whitespace and ``#`` comments, then exactly one
# alternative matches.  ``\w``/``\d``/``\s`` are the str.isalnum (+ "_") /
# str.isdecimal / str.isspace classes.  ``uident`` is an identifier whose
# first character is non-ASCII; it is kept only if that character is a
# letter.  ``error`` catches everything else, including unterminated
# strings and back-quotes.
_TOKEN_RE = re.compile(
    rf"""
    \s*(?:\#[^\n]*\s*)*
    (?:
      (?P<ident>[A-Za-z_]{_IDENT_TAIL})
    | (?P<punct>[{{}}\[\](),@^*:;])
    | (?P<string>"{_STRING_BODY}")
    | (?P<number>-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
    | (?P<arrow>->)
    | (?P<cmp>[=!<>]=|[<>])
    | (?P<eq>=)
    | (?P<qident>`[^`]*`)
    | (?P<uident>[^\W\d\x00-\x7f]{_IDENT_TAIL})
    | (?P<end>\Z)
    | (?P<error>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
# Where the string alternative's body stops is the fault of a string the
# scanner refused.
_STRING_BODY_RE = re.compile(_STRING_BODY)

_PLAIN = frozenset(["ident", "punct", "number", "arrow", "cmp", "eq"])

#: A token is a plain ``(kind, value, position)`` tuple: kind is ident,
#: qident, string, number, punct, cmp, arrow, eq or end; position is the
#: offset of its first character.  Its line is counted only for an error.
_Token = tuple[str, str, int]


def _scan(text: str) -> list[_Token]:
    """Tokenize *text*; the last token is always ``end``."""
    tokens: list[_Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        if kind in _PLAIN:
            append((kind, value, match.start(kind)))
        elif kind == "string":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(lambda m: _UNESCAPE[m[1]], value)
            append((kind, value, match.start(kind)))
        elif kind == "qident":
            append((kind, value[1:-1], match.start(kind)))
        elif kind == "uident" and value[0].isalpha():
            append(("ident", value, match.start(kind)))
        elif kind == "end":
            # After trailing whitespace, finditer would also yield the
            # empty match at the very end: a second end token.
            append((kind, value, len(text)))
            break
        else:
            raise _scan_error(text, match.start(kind))
    return tokens


def _line(text: str, position: int) -> int:
    return text.count("\n", 0, position) + 1


def _scan_error(text: str, start: int) -> ParseError:
    """The error for the lexeme that no token alternative accepts at *start*."""
    line = _line(text, start)
    ch = text[start]
    if ch == '"':
        pos = _STRING_BODY_RE.match(text, start + 1).end()
        if pos + 1 < len(text):  # stopped at a backslash before a bad escape
            return ParseError(f"bad escape \\{text[pos + 1]}", pos, line)
        return ParseError("unterminated string literal", start, line)
    if ch == "`":
        return ParseError("unterminated back-quoted label", start, line)
    return ParseError(f"unexpected character {ch!r}", start, line)


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _scan(text)
        self._index = 0

    # -- token helpers -------------------------------------------------------

    def _error(self, message: str, token: _Token | None = None) -> ParseError:
        """A :class:`ParseError` at *token* (default: the current token)."""
        if token is None:
            token = self._tokens[self._index]
        return ParseError(message, token[2], _line(self._text, token[2]))

    def _unexpected(self, want: str) -> ParseError:
        kind, value, _ = self._tokens[self._index]
        return self._error(f"expected {want}, found {value or kind!r}")

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> str:
        """Consume the current token (never past ``end``); return its value."""
        kind, value, _ = self._tokens[self._index]
        if kind != "end":
            self._index += 1
        return value

    def _expect(self, kind: str, value: str | None = None) -> str:
        """Consume a token of *kind* (and *value*, if given); return its value."""
        token = self._tokens[self._index]
        if token[0] != kind or (value is not None and token[1] != value):
            raise self._unexpected(repr(value if value is not None else kind))
        self._index += 1
        return token[1]

    def _expect_label(self) -> str:
        kind, value, _ = self._tokens[self._index]
        if kind == "ident" or kind == "qident":
            self._index += 1
            return value
        raise self._unexpected("a label")

    def _at_punct(self, value: str) -> bool:
        token = self._tokens[self._index]
        return token[1] == value and token[0] == "punct"

    def _at_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        return token[1] == word and token[0] == "ident"

    def _eat_punct(self, value: str) -> bool:
        token = self._tokens[self._index]
        if token[1] == value and token[0] == "punct":
            self._index += 1
            return True
        return False

    def _eat_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        if token[1] == word and token[0] == "ident":
            self._index += 1
            return True
        return False

    def expect_end(self) -> None:
        kind, value, _ = self._tokens[self._index]
        if kind != "end":
            raise self._error(f"trailing input: {value!r}")

    # -- literals ------------------------------------------------------------

    def _to_number(self, token: _Token) -> "int | float":
        text = token[1]
        try:
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        except ValueError:  # past int()'s digit limit
            raise self._error(f"malformed number {text!r}", token) from None

    def _literal(self) -> Child:
        token = self._tokens[self._index]
        kind, value, _ = token
        if kind == "string":
            self._index += 1
            return value
        if kind == "number":
            self._index += 1
            return self._to_number(token)
        if kind == "ident" and (value == "true" or value == "false"):
            self._index += 1
            return value == "true"
        raise self._unexpected("a literal")

    def _at_literal(self) -> bool:
        kind, value, _ = self._tokens[self._index]
        return kind == "string" or kind == "number" or (
            kind == "ident" and (value == "true" or value == "false")
        )

    def _attrs(self, allow_vars: bool) -> tuple[tuple[str, "str | Var"], ...]:
        """Parse ``@{k="v", k2=var X}`` (the ``@`` is already consumed)."""
        self._expect("punct", "{")
        pairs: list[tuple[str, "str | Var"]] = []
        while not self._at_punct("}"):
            key = self._expect_label()
            self._expect("eq")
            if allow_vars and self._eat_keyword("var"):
                pairs.append((key, Var(self._expect("ident"))))
            else:
                pairs.append((key, self._expect("string")))
            if not self._eat_punct(","):
                break
        self._expect("punct", "}")
        return tuple(sorted(pairs, key=lambda kv: kv[0]))

    # -- data terms ----------------------------------------------------------

    def parse_data(self) -> Child:
        """Parse one data term or literal."""
        if self._at_literal():
            return self._literal()
        label_token = self._tokens[self._index]
        label = self._expect_label()
        attrs: tuple[tuple[str, str], ...] = ()
        if self._eat_punct("@"):
            attrs = self._attrs(allow_vars=False)  # type: ignore[assignment]
        if self._eat_punct("{"):
            children, ordered = self._data_children("}"), False
        elif self._eat_punct("["):
            children, ordered = self._data_children("]"), True
        else:
            children, ordered = (), True
        if not label:  # checked once the term is complete, as Data() would
            raise self._error("empty back-quoted label", label_token)
        return Data(label, children, ordered, attrs)

    def _data_children(self, closing: str) -> tuple[Child, ...]:
        children: list[Child] = []
        while not self._at_punct(closing):
            children.append(self.parse_data())
            if not self._eat_punct(","):
                break
        self._expect("punct", closing)
        return tuple(children)

    # -- query terms ----------------------------------------------------------

    def parse_query(self) -> Query:
        kind, value, _ = self._tokens[self._index]
        if kind == "cmp":
            self._index += 1
            if self._eat_keyword("var"):
                return Compare(value, Var(self._expect("ident")))
            return Compare(value, self._literal())  # type: ignore[arg-type]
        if kind == "ident":
            if value == "var":
                self._index += 1
                name = self._expect("ident")
                if self._tokens[self._index][0] == "arrow":
                    self._index += 1
                    return Var(name, self.parse_query())
                return Var(name)
            if value == "desc":
                self._index += 1
                return Desc(self.parse_query())
            if value == "without":
                self._index += 1
                return Without(self.parse_query())
            if value == "optional":
                self._index += 1
                inner = self.parse_query()
                default: Child | None = None
                if self._eat_keyword("default"):
                    default = self.parse_data()
                return Optional_(inner, default)
            if value == "re":
                self._index += 1
                return RegexMatch(self._expect("string"))
        if self._at_literal():
            return self._literal()
        return self._qterm()

    def _qterm(self) -> QTerm:
        label_token = self._tokens[self._index]
        label: "str | LabelVar"
        if self._eat_punct("^"):
            label = LabelVar(self._expect("ident"))
        elif self._eat_punct("*"):
            label = "*"
        else:
            label = self._expect_label()
        attrs: tuple[tuple[str, "str | Var"], ...] = ()
        if self._eat_punct("@"):
            attrs = self._attrs(allow_vars=True)
        if self._eat_punct("{"):
            ordered, total = False, not self._eat_punct("{")
            children = self._query_children("}")
            if not total:
                self._expect("punct", "}")
        elif self._eat_punct("["):
            ordered, total = True, not self._eat_punct("[")
            children = self._query_children("]")
            if not total:
                self._expect("punct", "]")
        else:
            # Bare label: match any children (unordered partial, no patterns).
            children, ordered, total = (), False, False
        if label == "":  # checked once the term is complete, as QTerm() would
            raise self._error("empty back-quoted label", label_token)
        return QTerm(label, children, ordered, total, attrs)

    def _query_children(self, closing: str) -> tuple[Query, ...]:
        children: list[Query] = []
        while not self._at_punct(closing):
            children.append(self.parse_query())
            if not self._eat_punct(","):
                break
        self._expect("punct", closing)
        return tuple(children)

    # -- construct terms -------------------------------------------------------

    def parse_construct(self) -> Construct:
        kind, value, _ = self._tokens[self._index]
        if kind == "ident":
            if value == "var":
                self._index += 1
                return Var(self._expect("ident"))
            if value == "all":
                self._index += 1
                return self._all()
            if value == "true" or value == "false":
                return self._literal()
            after = self._tokens[self._index + 1]  # an ident is never last
            if after[1] == "(" and after[0] == "punct":
                return self._call()
        elif kind == "string" or kind == "number":
            return self._literal()
        # Label: plain or variable (^X).
        label: "str | Var"
        if self._eat_punct("^"):
            label = Var(self._expect("ident"))
        else:
            label = self._expect_label()
        attrs: tuple[tuple[str, "str | Var"], ...] = ()
        if self._eat_punct("@"):
            attrs = self._attrs(allow_vars=True)
        if self._eat_punct("{"):
            children = self._construct_children("}")
            return CTerm(label, children, False, attrs)
        if self._eat_punct("["):
            children = self._construct_children("]")
            return CTerm(label, children, True, attrs)
        return CTerm(label, (), True, attrs)

    def _all(self) -> All:
        inner = self.parse_construct()
        order_by: tuple[str, ...] = ()
        if self._eat_keyword("order"):
            self._expect("ident", "by")
            self._expect("punct", "[")
            names = []
            while not self._at_punct("]"):
                names.append(self._expect("ident"))
                if not self._eat_punct(","):
                    break
            self._expect("punct", "]")
            order_by = tuple(names)
        return All(inner, order_by)

    def _call(self) -> Construct:
        name = self._expect("ident")
        self._expect("punct", "(")
        if name in _AGG_FNS and self._eat_keyword("var"):
            var_name = self._expect("ident")
            self._expect("punct", ")")
            return Agg(name, var_name)
        args: list[Construct] = []
        while not self._at_punct(")"):
            args.append(self.parse_construct())
            if not self._eat_punct(","):
                break
        self._expect("punct", ")")
        return Fn(name, tuple(args))

    def _construct_children(self, closing: str) -> tuple[Construct, ...]:
        children: list[Construct] = []
        while not self._at_punct(closing):
            children.append(self.parse_construct())
            if not self._eat_punct(","):
                break
        self._expect("punct", closing)
        return tuple(children)


# ---------------------------------------------------------------------------
# Public parse functions
# ---------------------------------------------------------------------------


def parse_data(text: str) -> Child:
    """Parse a data term (or scalar literal) from text."""
    parser = _Parser(text)
    term = parser.parse_data()
    parser.expect_end()
    return term


def parse_query(text: str) -> Query:
    """Parse a query term from text."""
    parser = _Parser(text)
    term = parser.parse_query()
    parser.expect_end()
    return term


def parse_construct(text: str) -> Construct:
    """Parse a construct term from text."""
    parser = _Parser(text)
    term = parser.parse_construct()
    parser.expect_end()
    return term


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def _escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


#: Memo of label -> its text; cleared when full, so it stays bounded.  The
#: text depends on the label alone, so racing threads at worst recompute.
_LABEL_TEXTS: dict[str, str] = {}
_LABEL_TEXTS_MAX = 4096


def _label_text(label: str) -> str:
    """*label* as the scanner reads it back: plain ident or back-quoted."""
    text = _LABEL_TEXTS.get(label)
    if text is None:
        if "`" in label:
            raise TermError(f"cannot serialise label {label!r}: it contains '`'")
        plain = label not in _KEYWORDS and _reads_as_ident(label)
        text = label if plain else f"`{label}`"
        if len(_LABEL_TEXTS) >= _LABEL_TEXTS_MAX:
            _LABEL_TEXTS.clear()
        _LABEL_TEXTS[label] = text
    return text


def _reads_as_ident(label: str) -> bool:
    """True if the scanner reads *label* back as one identifier token."""
    try:
        return _scan(label)[0] == ("ident", label, 0)
    except ParseError:
        return False


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise TermError(f"cannot serialise non-finite float {value!r}")
    return float.__repr__(value)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _attrs_text(attrs: tuple[tuple[str, object], ...]) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs:
        key_text = _label_text(key)
        if isinstance(value, Var):
            parts.append(f"{key_text}=var {value.name}")
        elif isinstance(value, Fn):
            parts.append(f"{key_text}={to_text(value)}")
        else:
            parts.append(f"{key_text}={_escape_string(str(value))}")
    return " @{" + ", ".join(parts) + "}"


def _children_text(children: tuple) -> str:
    return ", ".join([to_text(child) for child in children])


def _data_text(term: Data) -> str:
    label = _label_text(term.label)
    if term.attrs:
        label += _attrs_text(term.attrs)
    if not term.children:
        return label if term.ordered else label + "{}"
    inner = _children_text(term.children)
    return f"{label}[{inner}]" if term.ordered else f"{label}{{{inner}}}"


def _var_text(term: Var) -> str:
    if term.inner is not None:
        return f"var {term.name} -> {to_text(term.inner)}"
    return f"var {term.name}"


def _optional_text(term: Optional_) -> str:
    text = f"optional {to_text(term.inner)}"
    if term.default is not None:
        text += f" default {to_text(term.default)}"
    return text


def _compare_text(term: Compare) -> str:
    rhs = f"var {term.rhs.name}" if isinstance(term.rhs, Var) else to_text(term.rhs)
    return f"{term.op} {rhs}"


def _qterm_text(term: QTerm) -> str:
    if isinstance(term.label, LabelVar):
        label = f"^{term.label.name}"
    elif term.label == "*":
        label = "*"
    else:
        label = _label_text(term.label)
    label += _attrs_text(term.attrs)
    if not term.children and not term.ordered and not term.total:
        return label
    inner = _children_text(term.children)
    if term.ordered:
        return f"{label}[{inner}]" if term.total else f"{label}[[{inner}]]"
    return f"{label}{{{inner}}}" if term.total else f"{label}{{{{{inner}}}}}"


def _cterm_text(term: CTerm) -> str:
    if isinstance(term.label, Var):
        label = f"^{term.label.name}"
    else:
        label = _label_text(term.label)
    label += _attrs_text(term.attrs)
    if not term.children and term.ordered:
        return label
    inner = _children_text(term.children)
    return f"{label}[{inner}]" if term.ordered else f"{label}{{{inner}}}"


def _all_text(term: All) -> str:
    text = f"all {to_text(term.inner)}"
    if term.order_by:
        text += " order by [" + ", ".join(term.order_by) + "]"
    return text


#: Writer per exact term type; subclasses resolve through their MRO.
_WRITERS: dict[type, Callable[[Any], str]] = {
    Data: _data_text,
    str: _escape_string,
    int: int.__repr__,
    float: _float_text,
    bool: _bool_text,
    Var: _var_text,
    Desc: lambda term: f"desc {to_text(term.inner)}",
    Without: lambda term: f"without {to_text(term.inner)}",
    Optional_: _optional_text,
    Compare: _compare_text,
    RegexMatch: lambda term: f"re {_escape_string(term.pattern)}",
    QTerm: _qterm_text,
    CTerm: _cterm_text,
    All: _all_text,
    Agg: lambda term: f"{term.fn}(var {term.var})",
    Fn: lambda term: f"{term.name}(" + _children_text(term.args) + ")",
}


def to_text(term: "Query | Construct | Child") -> str:
    """Serialise any term to parseable text (round-trip safe).

    Raises :class:`~repro.errors.TermError` for what the text cannot carry:
    a non-finite float (``inf``, ``-inf``, ``nan``) or a label containing a
    back-quote.
    """
    writer = _WRITERS.get(type(term))
    if writer is None:
        for cls in type(term).__mro__:
            writer = _WRITERS.get(cls)
            if writer is not None:
                break
        else:
            raise ParseError(f"cannot serialise {term!r}")
    return writer(term)
