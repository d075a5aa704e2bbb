"""Unit tests for the textual term syntax (parser + serializer)."""

import sys

import pytest

from repro.errors import ParseError, TermError
from repro.terms import (
    Agg,
    All,
    Compare,
    CTerm,
    Data,
    Desc,
    Fn,
    LabelVar,
    Optional_,
    QTerm,
    RegexMatch,
    Var,
    Without,
    d,
    parse_construct,
    parse_data,
    parse_query,
    to_text,
    u,
)


class TestDataParsing:
    def test_scalars(self):
        assert parse_data('"hi"') == "hi"
        assert parse_data("42") == 42
        assert parse_data("-7") == -7
        assert parse_data("3.25") == 3.25
        assert parse_data("1e3") == 1000.0
        assert parse_data("true") is True
        assert parse_data("false") is False

    def test_string_escapes(self):
        assert parse_data(r'"a\"b\\c\nd"') == 'a"b\\c\nd'

    def test_bad_escape(self):
        with pytest.raises(ParseError):
            parse_data(r'"\q"')

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_data('"abc')

    def test_leaf_element(self):
        assert parse_data("item") == d("item")

    def test_ordered_children(self):
        assert parse_data("r[1, 2]") == d("r", 1, 2)

    def test_unordered_children(self):
        assert parse_data("s{1, 2}") == u("s", 1, 2)

    def test_nesting(self):
        term = parse_data("a[b{c, 1}, 2]")
        assert term == d("a", u("b", d("c"), 1), 2)

    def test_attributes(self):
        term = parse_data('a @{k="v", j="w"} [1]')
        assert term == Data("a", (1,), True, (("j", "w"), ("k", "v")))

    def test_backquoted_label(self):
        assert parse_data("`var`[1]") == d("var", 1)
        assert parse_data("`strange label!`") == d("strange label!")

    def test_comments_ignored(self):
        assert parse_data("a[ # comment\n 1 ]") == d("a", 1)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_data("a b")

    def test_query_constructs_rejected_in_data(self):
        with pytest.raises(ParseError):
            parse_data("a[var X]")

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as info:
            parse_data("a[\n  %")
        assert "line 2" in str(info.value)


class TestQueryParsing:
    def test_four_brace_modes(self):
        assert parse_query("f[x]") == QTerm("f", (QTerm("x", (), False, False),), True, True)
        assert parse_query("f[[x]]").total is False
        assert parse_query("f{x}") == QTerm("f", (QTerm("x", (), False, False),), False, True)
        assert parse_query("f{{x}}").total is False
        assert parse_query("f{{x}}").ordered is False

    def test_bare_label_is_partial(self):
        query = parse_query("f")
        assert query == QTerm("f", (), False, False)

    def test_var(self):
        assert parse_query("var X") == Var("X")

    def test_restricted_var(self):
        assert parse_query("var X -> f{{}}") == Var("X", QTerm("f", (), False, False))

    def test_desc_without_optional(self):
        assert parse_query("desc f") == Desc(QTerm("f", (), False, False))
        assert parse_query("without f") == Without(QTerm("f", (), False, False))
        assert parse_query("optional var X") == Optional_(Var("X"))
        assert parse_query("optional var X default 0") == Optional_(Var("X"), 0)

    def test_comparisons(self):
        assert parse_query("> 5") == Compare(">", 5)
        assert parse_query(">= 5") == Compare(">=", 5)
        assert parse_query('== "x"') == Compare("==", "x")
        assert parse_query("!= var Y") == Compare("!=", Var("Y"))

    def test_regex(self):
        assert parse_query('re "[a-z]+"') == RegexMatch("[a-z]+")

    def test_wildcard_and_label_var(self):
        assert parse_query("*").label == "*"
        assert parse_query("^L{{}}").label == LabelVar("L")

    def test_attr_with_var(self):
        query = parse_query('a @{k=var V} {{}}')
        assert query.attrs == (("k", Var("V")),)

    def test_nested_double_braces(self):
        query = parse_query("a{{ b{{ var X }} }}")
        inner = query.children[0]
        assert isinstance(inner, QTerm) and inner.total is False

    def test_deep_single_brace_nesting(self):
        # f{g{a}} must not be confused with partial braces.
        query = parse_query("f{g{a}}")
        assert query.total is True
        assert query.children[0].total is True

    def test_empty_partial(self):
        assert parse_query("f{{}}") == QTerm("f", (), False, False)


class TestConstructParsing:
    def test_var(self):
        assert parse_construct("var X") == Var("X")

    def test_structured(self):
        assert parse_construct("out[var X, 1]") == CTerm("out", (Var("X"), 1), True)
        assert parse_construct("out{var X}") == CTerm("out", (Var("X"),), False)

    def test_all(self):
        construct = parse_construct("all item[var X]")
        assert construct == All(CTerm("item", (Var("X"),), True))

    def test_all_with_order(self):
        construct = parse_construct("all item[var X] order by [X, Y]")
        assert construct == All(CTerm("item", (Var("X"),), True), ("X", "Y"))

    def test_aggregations(self):
        assert parse_construct("count(var X)") == Agg("count", "X")
        assert parse_construct("avg(var P)") == Agg("avg", "P")

    def test_functions(self):
        assert parse_construct("add(var X, 1)") == Fn("add", (Var("X"), 1))
        assert parse_construct('concat("a", var B)') == Fn("concat", ("a", Var("B")))

    def test_label_var(self):
        assert parse_construct("^L[1]") == CTerm(Var("L"), (1,), True)

    def test_nested_all_in_term(self):
        construct = parse_construct("out{ all line[var X], count(var X) }")
        assert isinstance(construct.children[0], All)
        assert isinstance(construct.children[1], Agg)


ROUND_TRIP_CASES = [
    d("leaf"),
    d("a", 1, 2.5, True, "text"),
    u("s", d("x"), d("y")),
    d("a", u("b", 1), k="v"),
    Data("var", (1,), True),  # keyword label needs backquoting
    Data("weird label", ()),
    d("neg", -3, -4.5),
    QTerm("f", (Var("X"), Desc(QTerm("g", (), False, False))), False, False),
    QTerm("f", (Compare(">", 3), Without(QTerm("bad", (), False, False))), False, True),
    QTerm(LabelVar("L"), (Optional_(Var("X"), 7),), True, False),
    QTerm("f", (RegexMatch("[0-9]+"),), True, True, (("k", Var("V")),)),
    Var("X", QTerm("g", (), False, False)),
    CTerm("out", (All(CTerm("i", (Var("X"),)), ("X",)), Agg("sum", "Q")), False),
    Fn("add", (Var("X"), Fn("mul", (2, Var("Y"))))),
    CTerm(Var("L"), (1,), True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("term", ROUND_TRIP_CASES, ids=lambda t: to_text(t)[:40])
    def test_round_trip(self, term):
        text = to_text(term)
        if isinstance(term, (Data, int, float, str, bool)):
            parsed = parse_data(text)
        elif isinstance(term, (QTerm, Var, Desc, Without, Optional_, Compare, RegexMatch)):
            parsed = parse_query(text)
        else:
            parsed = parse_construct(text)
        assert parsed == term

    def test_string_with_quotes_and_newlines(self):
        term = d("a", 'say "hi"\nplease\t!')
        assert parse_data(to_text(term)) == term

    def test_float_round_trip(self):
        for value in (0.1, 1e-9, 12345.678, -2.5e10):
            assert parse_data(to_text(d("a", value))) == d("a", value)

    def test_label_ending_in_colon_round_trips(self):
        # The scanner never ends an identifier in ':', so such a label
        # must be written back-quoted.
        for label in ("a:", "ns:b:", "x-y", "a.b"):
            assert parse_data(to_text(d(label, 1))) == d(label, 1)


class TestNonFiniteFloats:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_to_text_refuses(self, value):
        with pytest.raises(TermError, match=repr(value)):
            to_text(d("v", value))

    def test_refused_in_every_position(self):
        inf = float("inf")
        for term in (inf, u("r", d("a", 1), inf), Compare(">", inf),
                     CTerm("out", (inf,)), Fn("add", (Var("X"), inf))):
            with pytest.raises(TermError, match="non-finite"):
                to_text(term)

    def test_parsed_overflow_is_not_written_back(self):
        # "1e999" reads as inf; the writer refuses it instead of emitting
        # text that reads back as the label `inf`.
        term = parse_data("v[1e999]")
        with pytest.raises(TermError):
            to_text(term)

    def test_backquote_in_label_refused(self):
        with pytest.raises(TermError, match="contains '`'"):
            to_text(d("a`b"))


class TestMalformedTextRaisesParseError:
    @pytest.mark.parametrize("text, message, position", [
        ("²", "unexpected character '²'", 0),
        ("a[-²]", "unexpected character '-'", 2),
        ("a[1²]", "unexpected character '²'", 3),
        ("a[1e²]", "expected ']', found 'e²'", 3),
        ("½", "unexpected character '½'", 0),
        ("``", "empty back-quoted label", 0),
        ("a[1, ``]", "empty back-quoted label", 5),
        ("a[\n``]", "empty back-quoted label", 3),
    ])
    def test_data(self, text, message, position):
        with pytest.raises(ParseError, match=message) as info:
            parse_data(text)
        assert info.value.position == position
        assert info.value.line == text.count("\n", 0, position) + 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit on this interpreter")
    def test_number_past_the_int_digit_limit(self):
        with pytest.raises(ParseError, match="malformed number"):
            parse_data("1" * (sys.get_int_max_str_digits() + 1))

    @pytest.mark.parametrize("parse", [parse_query, parse_construct])
    @pytest.mark.parametrize("text", ["²", "f[-²]", "f[1²]"])
    def test_query_and_construct(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text", ["``", "f{``}", "f[[var X, ``]]"])
    def test_empty_query_label(self, text):
        with pytest.raises(ParseError, match="empty back-quoted label"):
            parse_query(text)

    def test_empty_backquoted_attribute_name_still_accepted(self):
        term = parse_data('a @{``="v"}')
        assert term == Data("a", (), True, (("", "v"),))
        assert parse_data(to_text(term)) == term

    def test_unicode_letters_and_decimal_digits_still_accepted(self):
        assert parse_data("été[٣]") == d("été", 3)
        assert parse_data("x²") == d("x²")

    def test_error_line_is_counted_from_the_text(self):
        with pytest.raises(ParseError) as info:
            parse_data('a[\n"x\ny",\n\n !]')
        assert (info.value.position, info.value.line) == (12, 5)
        assert str(info.value) == "line 5: unexpected character '!'"
