"""Parser for the surface rule language.

Builds on the term tokenizer/parser: rule keywords are UPPER-CASE
identifiers, term patterns are parsed by the inherited term grammar from
the same token stream.

Grammar (informal)::

    program   := (rule | procedure | ruleset)*
    ruleset   := RULESET name program END
    procedure := PROCEDURE name [params...] action
    rule      := RULE name [FIRST]
                 ON event
                 ( (IF cond DO action)+ [ELSE action] | DO action [ELSE action] )
    event     := seq (OR seq)*
    seq       := conj (THEN [NOT pattern THEN?] conj)* [THEN NOT pattern]
    conj      := prim (AND prim)*
    prim      := WITHIN number ( event )
               | COUNT int OF pattern WITHIN number [BY [vars]]
               | AGG fn var OF pattern (LAST int | WITHIN number) INTO var
                     [BY [vars]] [RISE number % | WHEN op number]
               | ( event )
               | pattern [AS var]
    cond      := c_or;  c_or := c_and (OR c_and)*;  c_and := c_prim (AND c_prim)*
    c_prim    := TRUE | NOT c_prim | ( cond )
               | IN uri : pattern
               | construct op construct          (comparison)
    action    := SEQUENCE action (ALSO action)* END [NONATOMIC]
               | TRY action (ELSETRY action)* END
               | WHEN cond THEN action [ELSE action] END
               | RAISE TO uri construct
               | INSERT construct INTO uri AT pattern [START]
               | DELETE pattern FROM uri
               | REPLACE pattern IN uri BY construct
               | PUT uri construct
               | DELETERESOURCE uri
               | PERSIST construct INTO uri [ROOT name]
               | CALL name [p = construct, ...]
               | INSTALL construct
               | UNINSTALL (name | var X)
    uri       := "string" | var X
"""

from __future__ import annotations

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.rules import ECARule
from repro.core.rulesets import RuleSet
from repro.errors import ParseError
from repro.events.queries import (
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
)
from repro.terms.ast import Var
from repro.terms.parser import _Parser

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

_AGG_FNS = ("count", "sum", "avg", "min", "max")


class _RuleParser(_Parser):
    """Extends the term parser with the rule grammar."""

    # -- small helpers -----------------------------------------------------------

    def _expect_kw(self, word: str) -> None:
        if not self._eat_keyword(word):
            raise self._unexpected(repr(word))

    def _name(self) -> str:
        return self._expect_label()

    def _uri(self) -> "str | Var":
        if self._peek()[0] == "string":
            return self._advance()
        if self._eat_keyword("var"):
            return Var(self._expect("ident"))
        raise self._unexpected("a URI string or var")

    def _number(self) -> float:
        return float(self._expect("number"))

    def _int(self) -> int:
        token = self._peek()
        value = self._expect("number")
        try:
            return int(value)
        except ValueError as exc:
            raise self._error(f"expected an integer, found {value!r}", token) from exc

    # -- events -------------------------------------------------------------------

    def parse_event(self):
        members = [self._event_seq()]
        while self._eat_keyword("OR"):
            members.append(self._event_seq())
        return members[0] if len(members) == 1 else EOr(*members)

    def _event_seq(self):
        members = [self._event_conj()]
        has_seq = False
        while self._eat_keyword("THEN"):
            has_seq = True
            if self._eat_keyword("NOT"):
                members.append(ENot(self.parse_query()))
                if self._eat_keyword("THEN"):
                    members.append(self._event_conj())
            else:
                members.append(self._event_conj())
        return members[0] if not has_seq else ESeq(*members)

    def _event_conj(self):
        members = [self._event_prim()]
        while self._eat_keyword("AND"):
            members.append(self._event_prim())
        return members[0] if len(members) == 1 else EAnd(*members)

    def _event_prim(self):
        if self._eat_keyword("WITHIN"):
            window = self._number()
            self._expect("punct", "(")
            inner = self.parse_event()
            self._expect("punct", ")")
            return EWithin(inner, window)
        if self._eat_keyword("COUNT"):
            n = self._int()
            self._expect_kw("OF")
            pattern = self.parse_query()
            self._expect_kw("WITHIN")
            window = self._number()
            group = self._group_by()
            return ECount(pattern, n, window, group)
        if self._eat_keyword("AGG"):
            fn = self._expect("ident")
            if fn not in _AGG_FNS:
                raise ParseError(f"unknown aggregate function {fn!r}")
            self._expect("ident", "var")
            on = self._expect("ident")
            self._expect_kw("OF")
            pattern = self.parse_query()
            size = None
            window = None
            if self._eat_keyword("LAST"):
                size = self._int()
            else:
                self._expect_kw("WITHIN")
                window = self._number()
            self._expect_kw("INTO")
            self._expect("ident", "var")
            into = self._expect("ident")
            group = self._group_by()
            predicate = None
            if self._eat_keyword("RISE"):
                predicate = ("rise%", self._number())
            elif self._eat_keyword("WHEN"):
                op = self._expect("cmp")
                predicate = (op, self._number())
            return EAggregate(pattern, on, fn, into, size=size, window=window,
                              group_by=group, predicate=predicate)
        if self._at_punct("("):
            self._advance()
            inner = self.parse_event()
            self._expect("punct", ")")
            return inner
        pattern = self.parse_query()
        alias = None
        if self._eat_keyword("AS"):
            self._expect("ident", "var")
            alias = self._expect("ident")
        return EAtom(pattern, alias=alias)

    def _group_by(self) -> tuple[str, ...]:
        if not self._eat_keyword("BY"):
            return ()
        self._expect("punct", "[")
        names = []
        while not self._at_punct("]"):
            names.append(self._expect("ident"))
            if not self._eat_punct(","):
                break
        self._expect("punct", "]")
        return tuple(names)

    # -- conditions -------------------------------------------------------------------

    def parse_condition(self):
        members = [self._cond_and()]
        while self._eat_keyword("OR"):
            members.append(self._cond_and())
        return members[0] if len(members) == 1 else cond.OrCond(*members)

    def _cond_and(self):
        members = [self._cond_prim()]
        while self._eat_keyword("AND"):
            members.append(self._cond_prim())
        return members[0] if len(members) == 1 else cond.AndCond(*members)

    def _cond_prim(self):
        if self._eat_keyword("TRUE"):
            return cond.TrueCond()
        if self._eat_keyword("NOT"):
            return cond.NotCond(self._cond_prim())
        if self._at_punct("("):
            self._advance()
            inner = self.parse_condition()
            self._expect("punct", ")")
            return inner
        if self._eat_keyword("IN"):
            uri = self._uri()
            self._expect("punct", ":")
            query = self.parse_query()
            return cond.QueryCond(uri, query)
        # comparison: construct op construct
        lhs = self.parse_construct()
        if self._peek()[0] != "cmp":
            raise self._unexpected("a comparison operator")
        op = self._advance()
        rhs = self.parse_construct()
        return cond.CompareCond(lhs, op, rhs)

    # -- actions -----------------------------------------------------------------------

    def parse_action(self):
        if self._eat_keyword("SEQUENCE"):
            steps = [self.parse_action()]
            while self._eat_keyword("ALSO"):
                steps.append(self.parse_action())
            self._expect_kw("END")
            atomic = not self._eat_keyword("NONATOMIC")
            return act.Sequence(*steps, atomic=atomic)
        if self._eat_keyword("TRY"):
            options = [self.parse_action()]
            while self._eat_keyword("ELSETRY"):
                options.append(self.parse_action())
            self._expect_kw("END")
            return act.Alternative(*options)
        if self._eat_keyword("WHEN"):
            condition = self.parse_condition()
            self._expect_kw("THEN")
            then = self.parse_action()
            otherwise = self.parse_action() if self._eat_keyword("ELSE") else None
            self._expect_kw("END")
            return act.Conditional(condition, then, otherwise)
        if self._eat_keyword("RAISE"):
            self._expect_kw("TO")
            to = self._uri()
            return act.Raise(to, self.parse_construct())
        if self._eat_keyword("INSERT"):
            payload = self.parse_construct()
            self._expect_kw("INTO")
            uri = self._uri()
            self._expect_kw("AT")
            target = self.parse_query()
            position = "start" if self._eat_keyword("START") else "end"
            return act.Update(uri, "insert", target, payload, position)
        if self._eat_keyword("DELETE"):
            target = self.parse_query()
            self._expect_kw("FROM")
            return act.Update(self._uri(), "delete", target)
        if self._eat_keyword("REPLACE"):
            target = self.parse_query()
            self._expect_kw("IN")
            uri = self._uri()
            self._expect_kw("BY")
            return act.Update(uri, "replace", target, self.parse_construct())
        if self._eat_keyword("PUT"):
            uri = self._uri()
            return act.PutResource(uri, self.parse_construct())
        if self._eat_keyword("DELETERESOURCE"):
            return act.DeleteResource(self._uri())
        if self._eat_keyword("PERSIST"):
            content = self.parse_construct()
            self._expect_kw("INTO")
            uri = self._uri()
            root = self._name() if self._eat_keyword("ROOT") else "log"
            return act.Persist(uri, content, root)
        if self._eat_keyword("CALL"):
            name = self._name()
            args = []
            if self._eat_punct("("):
                while not self._at_punct(")"):
                    param = self._expect("ident")
                    self._expect("eq")
                    args.append((param, self.parse_construct()))
                    if not self._eat_punct(","):
                        break
                self._expect("punct", ")")
            return act.CallProcedure(name, tuple(args))
        if self._eat_keyword("INSTALL"):
            return act.InstallRule(self.parse_construct())
        if self._eat_keyword("UNINSTALL"):
            if self._eat_keyword("var"):
                return act.UninstallRule(Var(self._expect("ident")))
            return act.UninstallRule(self._name())
        raise self._unexpected("an action keyword")

    # -- rules -------------------------------------------------------------------------

    def parse_one_rule(self) -> ECARule:
        self._expect_kw("RULE")
        name = self._name()
        firing = "first" if self._eat_keyword("FIRST") else "all"
        self._expect_kw("ON")
        event = self.parse_event()
        branches = []
        otherwise = None
        while self._eat_keyword("IF"):
            condition = self.parse_condition()
            self._expect_kw("DO")
            branches.append((condition, self.parse_action()))
        if not branches:
            self._expect_kw("DO")
            branches.append((None, self.parse_action()))
        if self._eat_keyword("ELSE"):
            otherwise = self.parse_action()
        return ECARule(name, event, tuple(branches), otherwise, firing)

    def parse_program_items(self, toplevel: bool = True):
        """Yield rules / (name, params, action) procedures / RuleSets."""
        items = []
        while True:
            if self._at_keyword("RULE"):
                items.append(self.parse_one_rule())
            elif self._at_keyword("PROCEDURE"):
                self._advance()
                name = self._name()
                params = []
                self._expect("punct", "(")
                while not self._at_punct(")"):
                    params.append(self._expect("ident"))
                    if not self._eat_punct(","):
                        break
                self._expect("punct", ")")
                items.append(("procedure", name, tuple(params), self.parse_action()))
            elif self._at_keyword("RULESET"):
                self._advance()
                name = self._name()
                ruleset = RuleSet(name)
                for item in self.parse_program_items(toplevel=False):
                    if isinstance(item, ECARule):
                        ruleset.add(item)
                    elif isinstance(item, RuleSet):
                        child = ruleset.subset(item.name)
                        _merge_ruleset(child, item)
                    else:
                        raise ParseError("procedures must be declared at top level")
                self._expect_kw("END")
                items.append(ruleset)
            else:
                if not toplevel:
                    return items
                if self._peek()[0] == "end":
                    return items
                raise self._unexpected("RULE/PROCEDURE/RULESET")


def _merge_ruleset(target: RuleSet, source: RuleSet) -> None:
    for name, rule in source._rules.items():
        target.add(rule)
    for name, child in source._children.items():
        _merge_ruleset(target.subset(name), child)


def parse_rule(text: str) -> ECARule:
    """Parse a single ``RULE ...`` definition."""
    parser = _RuleParser(text)
    rule = parser.parse_one_rule()
    parser.expect_end()
    return rule


def parse_event_query(text: str):
    """Parse the event part of a rule (the ``ON ...`` grammar) on its own.

    >>> parse_event_query('a{{ x[var X] }} THEN b{{ x[var X] }}')  # doctest: +ELLIPSIS
    ESeq(...)
    """
    parser = _RuleParser(text)
    query = parser.parse_event()
    parser.expect_end()
    return query


def parse_condition(text: str):
    """Parse the condition part of a rule (the ``IF ...`` grammar) alone."""
    parser = _RuleParser(text)
    condition = parser.parse_condition()
    parser.expect_end()
    return condition


def parse_action(text: str):
    """Parse the action part of a rule (the ``DO ...`` grammar) alone."""
    parser = _RuleParser(text)
    action = parser.parse_action()
    parser.expect_end()
    return action


def parse_program(text: str) -> list:
    """Parse a whole program: rules, procedures, and rule sets.

    Returns a list whose items are :class:`ECARule`, :class:`RuleSet`, or
    ``("procedure", name, params, action)`` tuples, in source order.
    Install them on an engine with::

        for item in parse_program(src):
            if isinstance(item, tuple):
                engine.define_procedure(item[1], item[2], item[3])
            else:
                engine.install(item)
    """
    parser = _RuleParser(text)
    items = parser.parse_program_items()
    parser.expect_end()
    return items
