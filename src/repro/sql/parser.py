"""Recursive-descent parser: SQL text -> logical query trees (or DDL).

The supported subset is the language of the paper's Figure 8 (positive
select-project-join queries with ``possible``), plus ``certain`` and
``union``, plus index DDL over the representation relations:

    statement  := [POSSIBLE | CERTAIN] '(' select ')'
                | CONF '(' select ')' [conf_option*]
                | select
                | CREATE INDEX name ON table '(' column (',' column)* ')'
                  [USING (HASH | SORTED)]
                | DROP INDEX name
                | INSERT INTO table VALUES row (',' row)*
                | UPDATE table SET column '=' cell (',' column '=' cell)*
                  [WHERE condition]
                | DELETE FROM table [WHERE condition]
                | VACUUM [table]
                | (BEGIN | COMMIT | ROLLBACK) [TRANSACTION | WORK]
    row        := '(' cell (',' cell)* ')'
    cell       := literal | parameter
                | '{' literal (',' literal)* '}'   -- uncertain alternatives
    select     := SELECT [DISTINCT] targets FROM tables [WHERE condition]
                  [UNION select]
    conf_option:= METHOD (exact | approx | auto)
                | EPSILON number | DELTA number | SEED number
    targets    := '*' | column (',' column)*
    tables     := name [alias] (',' name [alias])*
    condition  := disjunction of conjunctions of predicates
    predicate  := operand (= | <> | < | <= | > | >=) operand
                | operand BETWEEN literal AND literal
                | operand [NOT] IN '(' literal (',' literal)* ')'
                | operand IS [NOT] NULL
                | NOT predicate | '(' condition ')'
    operand    := column | literal | parameter
    literal    := number | 'text' | DATE 'YYYY-MM-DD'
    parameter  := '$' digits                  -- $1 is the first slot

String literals shaped like ISO dates are parsed as dates (the paper
writes ``o.orderdate > '1995-03-15'``).  ``$n`` parameters (prepared
statements) may stand anywhere a literal can, except inside IN lists;
a slot carries its index only, its value arrives with each execution.

The FROM list becomes a left-deep chain of :class:`UJoin` nodes with a
trivially-true predicate; the WHERE clause sits above as one
:class:`USelect` — the translation then drops the ``TRUE``s, pushes each
conjunct to the partition scan or join it belongs to and orders the joins
by estimated cardinality (:mod:`repro.core.translate`), exactly the
division of labour the paper relies on PostgreSQL for.

DML statements address *logical* relations; a braced INSERT cell like
``{'Tank', 'Transport'}`` lists mutually exclusive alternatives, which
execution turns into a fresh world-table variable (see
:mod:`repro.core.dml`).
"""

from __future__ import annotations

import re
from typing import Any, List, NamedTuple, Optional, Tuple

from ..core.query import (
    Certain,
    Conf,
    Poss,
    Rel,
    UJoin,
    UProject,
    UQuery,
    USelect,
    UUnion,
)
from ..relational.expressions import (
    Between,
    Comparison,
    Expression,
    InList,
    IsNull,
    Not,
    Param,
    TRUE,
    col,
    conjunction,
    disjunction,
    lit,
)
from ..core.dml import Delete, Insert, UncertainValue, Update
from ..core.txn import Begin, Commit, Rollback
from ..relational.types import Date
from .lexer import SqlSyntaxError, Token, TokenKind, tokenize

__all__ = [
    "parse",
    "SqlSyntaxError",
    "CreateIndex",
    "DropIndex",
    "Vacuum",
    "Insert",
    "Update",
    "Delete",
    "Begin",
    "Commit",
    "Rollback",
]

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class CreateIndex(NamedTuple):
    """Parsed ``CREATE INDEX name ON table (columns) [USING kind]``.

    ``table`` names a *representation* relation (a ``u_*`` partition or
    ``w``) — indexes are physical structures, so DDL addresses the plain
    relations underneath the logical uncertain schema.
    """

    name: str
    table: str
    columns: Tuple[str, ...]
    kind: str = "hash"


class DropIndex(NamedTuple):
    """Parsed ``DROP INDEX name``."""

    name: str


class Vacuum(NamedTuple):
    """Parsed ``VACUUM [table]``.

    ``table`` names a *logical* relation (``None`` compacts everything):
    vacuuming rewrites every partition's segment stack into one base
    segment — see :meth:`repro.core.udatabase.UDatabase.compact`.
    """

    table: Optional[str] = None


def parse(sql: str):
    """Parse a SQL string into a :class:`UQuery` tree or a DDL statement.

    Returns a :class:`CreateIndex`/:class:`DropIndex` record for index DDL,
    otherwise the logical query tree.
    """
    parser = _Parser(tokenize(sql))
    query = parser.statement()
    parser.expect_end()
    return query


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0

    # ------------------------------------------------------------------
    # token utilities
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word.upper()!r} but found {self.current.text!r} "
                f"at position {self.current.position}"
            )

    def accept_punct(self, text: str) -> bool:
        if self.current.kind == TokenKind.PUNCT and self.current.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> None:
        if not self.accept_punct(text):
            raise SqlSyntaxError(
                f"expected {text!r} but found {self.current.text!r} "
                f"at position {self.current.position}"
            )

    def expect_end(self) -> None:
        if self.current.kind != TokenKind.END:
            raise SqlSyntaxError(
                f"unexpected trailing input {self.current.text!r} "
                f"at position {self.current.position}"
            )

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def statement(self):
        if self.accept_keyword("create"):
            return self._create_index()
        if self.accept_keyword("drop"):
            return self._drop_index()
        if self.accept_keyword("insert"):
            return self._insert()
        if self.accept_keyword("update"):
            return self._update()
        if self.accept_keyword("delete"):
            return self._delete()
        if self.accept_keyword("vacuum"):
            table = None
            if self.current.kind == TokenKind.IDENT:
                table = self._name("a table name")
            return Vacuum(table)
        if self.accept_keyword("begin"):
            self._txn_noise_word()
            return Begin()
        if self.accept_keyword("commit"):
            self._txn_noise_word()
            return Commit()
        if self.accept_keyword("rollback"):
            self._txn_noise_word()
            return Rollback()
        if self.accept_keyword("possible"):
            return Poss(self._wrapped_select())
        if self.accept_keyword("certain"):
            return Certain(self._wrapped_select())
        if self.accept_keyword("conf"):
            return self._conf()
        return self.select()

    def _txn_noise_word(self) -> None:
        """Swallow the optional TRANSACTION / WORK after BEGIN/COMMIT/ROLLBACK.

        Plain identifiers, not reserved words — tables and columns named
        ``transaction`` or ``work`` stay usable everywhere else.
        """
        if (
            self.current.kind == TokenKind.IDENT
            and self.current.text.lower() in ("transaction", "work")
        ):
            self.advance()

    # -- confidence queries ---------------------------------------------
    _CONF_OPTIONS = ("method", "epsilon", "delta", "seed")

    def _conf(self) -> Conf:
        """``CONF (select ...) [METHOD m] [EPSILON e] [DELTA d] [SEED s]``.

        The options are plain identifiers, not reserved words — columns
        named ``method`` etc. stay usable everywhere else.  With an
        unparenthesized select the first option word would parse as a
        table alias, so options effectively require the parenthesized
        form (the grammar above shows it that way).
        """
        query = self._wrapped_select()
        options: dict = {}
        while (
            self.current.kind == TokenKind.IDENT
            and self.current.text.lower() in self._CONF_OPTIONS
        ):
            name = self.advance().text.lower()
            if name in options:
                raise SqlSyntaxError(
                    f"duplicate {name.upper()} option at position "
                    f"{self.current.position}"
                )
            if name == "method":
                token = self.current
                method = self._name("a confidence method").lower()
                if method not in Conf.METHODS:
                    raise SqlSyntaxError(
                        f"unknown confidence method {method!r} at position "
                        f"{token.position} (use EXACT, APPROX, or AUTO)"
                    )
                options["method"] = method
            else:
                token = self.current
                if token.kind != TokenKind.NUMBER:
                    raise SqlSyntaxError(
                        f"expected a number after {name.upper()}, found "
                        f"{token.text!r} at position {token.position}"
                    )
                self.advance()
                if name == "seed":
                    if "." in token.text:
                        raise SqlSyntaxError(
                            f"SEED takes an integer, found {token.text!r} at "
                            f"position {token.position}"
                        )
                    options[name] = int(token.text)
                else:
                    options[name] = float(token.text)
        return Conf(query, **options)

    # -- index DDL ------------------------------------------------------
    def _name(self, what: str) -> str:
        token = self.current
        if token.kind != TokenKind.IDENT:
            raise SqlSyntaxError(
                f"expected {what}, found {token.text!r} at position {token.position}"
            )
        self.advance()
        return token.text

    def _create_index(self) -> CreateIndex:
        self.expect_keyword("index")
        name = self._name("an index name")
        self.expect_keyword("on")
        table = self._name("a table name")
        self.expect_punct("(")
        columns = [self._column_name()]
        while self.accept_punct(","):
            columns.append(self._column_name())
        self.expect_punct(")")
        kind = "hash"
        if self.accept_keyword("using"):
            kind = self._name("an index kind").lower()
            if kind not in ("hash", "sorted"):
                raise SqlSyntaxError(
                    f"unknown index kind {kind!r} (use HASH or SORTED)"
                )
        return CreateIndex(name, table, tuple(columns), kind)

    def _drop_index(self) -> DropIndex:
        self.expect_keyword("index")
        return DropIndex(self._name("an index name"))

    # -- DML ------------------------------------------------------------
    def _insert(self) -> Insert:
        self.expect_keyword("into")
        table = self._name("a table name")
        self.expect_keyword("values")
        rows = [self._value_row()]
        while self.accept_punct(","):
            rows.append(self._value_row())
        return Insert(table, tuple(rows))

    def _value_row(self) -> Tuple[Any, ...]:
        self.expect_punct("(")
        cells = [self._insert_cell()]
        while self.accept_punct(","):
            cells.append(self._insert_cell())
        self.expect_punct(")")
        return tuple(cells)

    def _insert_cell(self) -> Any:
        if self.accept_punct("{"):
            alternatives = [self._literal_value()]
            while self.accept_punct(","):
                alternatives.append(self._literal_value())
            self.expect_punct("}")
            try:
                return UncertainValue(alternatives)
            except ValueError as error:
                raise SqlSyntaxError(str(error)) from None
        return self._cell()

    def _cell(self) -> Any:
        """One certain DML value: a literal, or a ``$n`` parameter slot."""
        if self.current.kind == TokenKind.PARAM:
            token = self.advance()
            return Param(int(token.text[1:]) - 1)
        return self._literal_value()

    def _update(self) -> Update:
        table = self._name("a table name")
        self.expect_keyword("set")
        assignments = [self._assignment()]
        while self.accept_punct(","):
            assignments.append(self._assignment())
        condition = self._condition() if self.accept_keyword("where") else None
        return Update(table, tuple(assignments), condition)

    def _assignment(self) -> Tuple[str, Any]:
        column = self._column_name()
        token = self.current
        if token.kind != TokenKind.OP or token.text != "=":
            raise SqlSyntaxError(
                f"expected '=' in SET assignment, found {token.text!r} "
                f"at position {token.position}"
            )
        self.advance()
        return column, self._cell()

    def _delete(self) -> Delete:
        self.expect_keyword("from")
        table = self._name("a table name")
        condition = self._condition() if self.accept_keyword("where") else None
        return Delete(table, condition)

    def _wrapped_select(self) -> UQuery:
        parenthesized = self.accept_punct("(")
        query = self.select()
        if parenthesized:
            self.expect_punct(")")
        return query

    def select(self) -> UQuery:
        self.expect_keyword("select")
        self.accept_keyword("distinct")  # distinct is implied by poss/certain
        targets = self._targets()
        self.expect_keyword("from")
        source = self._tables()
        if self.accept_keyword("where"):
            source = USelect(source, self._condition())
        if targets is not None:
            source = UProject(source, targets)
        if self.accept_keyword("union"):
            return UUnion(source, self.select())
        return source

    def _targets(self) -> Optional[List[str]]:
        if self.accept_punct("*"):
            return None
        names = [self._column_name()]
        while self.accept_punct(","):
            names.append(self._column_name())
        return names

    def _column_name(self) -> str:
        token = self.current
        if token.kind != TokenKind.IDENT:
            raise SqlSyntaxError(
                f"expected a column name, found {token.text!r} "
                f"at position {token.position}"
            )
        self.advance()
        return token.text

    def _tables(self) -> UQuery:
        source = self._table()
        while self.accept_punct(","):
            source = UJoin(source, self._table(), TRUE)
        return source

    def _table(self) -> Rel:
        token = self.current
        if token.kind != TokenKind.IDENT:
            raise SqlSyntaxError(
                f"expected a table name, found {token.text!r} "
                f"at position {token.position}"
            )
        self.advance()
        alias: Optional[str] = None
        self.accept_keyword("as")
        if self.current.kind == TokenKind.IDENT and "." not in self.current.text:
            alias = self.advance().text
        return Rel(token.text, alias)

    # -- conditions -----------------------------------------------------
    def _condition(self) -> Expression:
        parts = [self._conjunction()]
        while self.accept_keyword("or"):
            parts.append(self._conjunction())
        return disjunction(parts)

    def _conjunction(self) -> Expression:
        parts = [self._predicate()]
        while self.accept_keyword("and"):
            parts.append(self._predicate())
        return conjunction(parts)

    def _predicate(self) -> Expression:
        if self.accept_keyword("not"):
            return Not(self._predicate())
        if self.accept_punct("("):
            inner = self._condition()
            self.expect_punct(")")
            return inner
        operand = self._operand()
        token = self.current
        if token.kind == TokenKind.OP:
            self.advance()
            right = self._operand()
            return Comparison(token.text, operand, right)
        if token.is_keyword("between"):
            self.advance()
            low = self._literal()
            self.expect_keyword("and")
            high = self._literal()
            return Between(operand, low, high)
        if token.is_keyword("not"):
            self.advance()
            self.expect_keyword("in")
            return Not(self._in_list(operand))
        if token.is_keyword("in"):
            self.advance()
            return self._in_list(operand)
        if token.is_keyword("is"):
            self.advance()
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            test: Expression = IsNull(operand)
            return Not(test) if negated else test
        raise SqlSyntaxError(
            f"expected a comparison, found {token.text!r} at position {token.position}"
        )

    def _in_list(self, operand: Expression) -> InList:
        self.expect_punct("(")
        values = [self._literal_value()]
        while self.accept_punct(","):
            values.append(self._literal_value())
        self.expect_punct(")")
        return InList(operand, values)

    def _operand(self) -> Expression:
        token = self.current
        if token.kind == TokenKind.IDENT:
            self.advance()
            return col(token.text)
        return self._literal()  # handles $n parameter slots too

    def _literal(self) -> Expression:
        if self.current.kind == TokenKind.PARAM:
            token = self.advance()
            return Param(int(token.text[1:]) - 1)
        return lit(self._literal_value())

    def _literal_value(self) -> Any:
        token = self.current
        if token.is_keyword("date"):
            self.advance()
            text = self.current
            if text.kind != TokenKind.STRING:
                raise SqlSyntaxError(
                    f"expected a date string after DATE at position {text.position}"
                )
            self.advance()
            return Date(text.text)
        if token.kind == TokenKind.STRING:
            self.advance()
            if _DATE_RE.match(token.text):
                return Date(token.text)
            return token.text
        if token.kind == TokenKind.NUMBER:
            self.advance()
            if "." in token.text:
                return float(token.text)
            return int(token.text)
        if token.is_keyword("null"):
            self.advance()
            return None
        raise SqlSyntaxError(
            f"expected a literal, found {token.text!r} at position {token.position}"
        )
