"""The SMT-LIB reader: every reading error pinned with its message, line
and column, and a seeded differential test against a per-character
tokenizer."""

import random

import pytest

from mathmorph.parser import (Atom, ParseError, UndeclaredVariableError,
                              UnsupportedCommandError, build_sexprs, parse,
                              read_sexprs, tokenize)
from mathmorph.printer import canonical_print

DEEP = "(+ 1 " * 199 + "x" + ")" * 199      # 202 levels once asserted

ERRORS = [
    ("close-on-line-3",
     "(declare-fun x () Int)\n(assert (> x 0))\n(check-sat))\n",
     ParseError, "unbalanced ')'", 3, 12),
    ("open-lines-back",
     "(declare-fun x () Int)\n(assert (> x\n\n(+ 1 2)\n0)\n(check-sat)\n",
     ParseError, "unbalanced '('", 2, 1),
    ("close-before-open", "(declare-fun x () Int))\n(assert (> x 0)",
     ParseError, "unbalanced ')'", 1, 23),
    ("literal-spans-lines",
     '(declare-fun x () Int)\n(set-logic "QF\nLIA)\n(check-sat)\n',
     ParseError, "unterminated string literal", 2, 12),
    ("literal-unpaired-quote", '(set-logic "a""\n)',
     ParseError, "unterminated string literal", 1, 12),
    ("literal-after-open", '(assert (> x 0)\n"abc',
     ParseError, "unterminated string literal", 2, 1),
    ("close-before-literal", ')\n"abc',
     ParseError, "unbalanced ')'", 1, 1),
    ("comment-at-end",
     "(declare-fun x () Int)(assert (> y 0)) ; no newline",
     UndeclaredVariableError, "undeclared variable: y", 1, 34),
    ("comment-hides-close", "(declare-fun x () Int ; )\n",
     ParseError, "unbalanced '('", 1, 1),
    ("crlf", "(declare-fun x () Int)\r\n(assert (> y 0))\r\n(check-sat)\r\n",
     UndeclaredVariableError, "undeclared variable: y", 2, 12),
    ("tabs", "\t(declare-fun x () Int)\n\t\t(assert\t(>\ty 0))",
     UndeclaredVariableError, "undeclared variable: y", 2, 14),
    ("nbsp", "(declare-fun\u00a0x () Int)\n(assert\u00a0(>\u00a0y 0))",
     UndeclaredVariableError, "undeclared variable: y", 2, 12),
    ("unicode-line-separator",
     "(declare-fun x () Int)\u2028(assert (> y 0))",
     UndeclaredVariableError, "undeclared variable: y", 1, 35),
    ("quote-in-symbol", '(declare-fun x () Int)\n(assert (> a"b 0))',
     UndeclaredVariableError, 'undeclared variable: a"b', 2, 12),
    ("literal-term", '(declare-fun x () Int)\n(assert (> "a;b" 0))',
     UndeclaredVariableError, 'undeclared variable: "a;b"', 2, 12),
    ("exponent-numeral",
     "(declare-fun x () Real)(assert (= x 1e5))(assert (> y 0))",
     UndeclaredVariableError, "undeclared variable: y", 1, 53),
    ("signed-numeral",
     "(declare-fun x () Int)(assert (= x -5))(assert (> y 0))",
     UndeclaredVariableError, "undeclared variable: y", 1, 51),
    ("inf", "(declare-fun x () Real)\n(assert (= x inf))",
     UndeclaredVariableError, "undeclared variable: inf", 2, 14),
    ("NaN", "(declare-fun x () Real)\n(assert (= x (+ 1 NaN)))",
     UndeclaredVariableError, "undeclared variable: NaN", 2, 19),
    ("long-numeral",
     "(declare-fun x () Int)\n(assert (= x " + "9" * 4001 + "))",
     ParseError, "numeral longer than 4000 digits", 2, 14),
    ("undeclared-after-literal",
     '(set-logic "a\n""b""\n")(declare-fun x () Int)\n(assert (> y x))',
     UndeclaredVariableError, "undeclared variable: y", 4, 12),
    ("stray-token", "(declare-fun x () Int)\n  x",
     ParseError, "stray token 'x'", 2, 3),
    ("no-command-name", "(declare-fun x () Int)\n((assert) x)",
     ParseError, "expected a command name", None, None),
    ("empty-command", "()",
     ParseError, "expected a command name", 0, 0),
    ("malformed-term", "(declare-fun x () Int)(assert (> (() 1) x))",
     ParseError, "malformed term", None, None),
    ("unsupported", '(declare-fun x () Int)\n  (echo "hi")',
     UnsupportedCommandError, "unsupported command: echo", 2, 4),
    ("deep-then-undeclared",
     f"(declare-fun x () Int)(assert (= x {DEEP}))\n(assert (> y 0))",
     ParseError, "nested deeper than 200 levels", None, None),
    ("undeclared-then-deep",
     f"(declare-fun x () Int)(assert (> y 0))\n(assert (= x {DEEP}))",
     UndeclaredVariableError, "undeclared variable: y", 1, 34),
    ("deep-then-unbalanced",
     f"(declare-fun x () Int)(assert (= x {DEEP}))\n(check-sat))",
     ParseError, "unbalanced ')'", 2, 12),
    ("deep-then-unterminated",
     f'(declare-fun x () Int)(assert (= x {DEEP}))\n"a',
     ParseError, "unterminated string literal", 2, 1),
    ("term-over-cap",
     "(declare-fun x () Int)(assert (= x " + "(+ 1 " * 197 + "x"
     + ")" * 197 + "))",
     ParseError, "a term has more than 100 levels", None, None),
    ("nesting-at-cap", "(assert " + "(+ 1 " * 198 + "()" + ")" * 198 + ")",
     ParseError, "expected a boolean operator, got '+'", 1, 10),
    ("nesting-over-cap", "(assert " + "(+ 1 " * 198 + "(x)" + ")" * 198 + ")",
     ParseError, "nested deeper than 200 levels", None, None),
]


@pytest.mark.parametrize("text, kind, message, line, col",
                         [case[1:] for case in ERRORS],
                         ids=[case[0] for case in ERRORS])
def test_a_reading_error_keeps_its_message_and_position(text, kind, message,
                                                        line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    exc = info.value
    assert type(exc) is kind
    where = "" if line is None else f" (line {line}, column {col})"
    assert (str(exc), exc.line, exc.col) == (message + where, line, col)


@pytest.mark.parametrize("text, printed", [
    ("; nothing here", "(check-sat)\n"),
    ("(declare-fun x () Int)(assert (> x 0)) ; done",
     "(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n"),
    ("(declare-fun x () Real)(assert (= x (+ 1e5 -5 .5 1E-2)))",
     "(declare-fun x () Real)\n"
     "(assert (= x (+ (+ (+ 100000 (- 5)) (/ 1 2)) (/ 1 100))))\n"
     "(check-sat)\n"),
], ids=["comment-only", "comment-at-end", "numerals"])
def test_odd_but_valid_input_parses(text, printed):
    assert canonical_print(parse(text)) == printed


# ---------------------------------------------------------------------------
# differential test against a per-character reader
# ---------------------------------------------------------------------------

def reference_tokenize(text, line=1):
    """Atoms of ``text`` read one character at a time: the reference the
    regex reader must agree with."""
    col = 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield Atom(ch, line, col)
            col += 1
            i += 1
        elif ch == '"':
            end = i + 1
            while True:
                end = text.find('"', end) + 1
                if not end:
                    raise ParseError("unterminated string literal", line, col)
                if text[end:end + 1] != '"':
                    break
                end += 1
            lexeme = text[i:end]
            yield Atom(lexeme, line, col)
            newlines = lexeme.count("\n")
            line += newlines
            col = end - text.rfind("\n", 0, end) if newlines \
                else col + len(lexeme)
            i = end
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            yield Atom(text[start:i], line, start_col)


def reference_nest(tokens):
    """The reference tokens nested at their parentheses, as plain lists."""
    stack, opens = [[]], []
    for tok in tokens:
        if tok.text == "(":
            stack.append([])
            opens.append(tok)
        elif tok.text == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", tok.line, tok.col)
            done = stack.pop()
            opens.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ParseError("unbalanced '('", opens[-1].line, opens[-1].col)
    return stack[0]


def outcome(read):
    """What ``read()`` gives, as plain data: nested lists of
    ``(text, line, col)``, or the error's message and position."""
    def plain(s):
        if isinstance(s, list):
            return [plain(x) for x in s]
        return (s.text, s.line, s.col)
    try:
        return plain(list(read()))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


PIECES = ["(", ")", "(", ")", ";", '"', '""', "\n", "\r", "\t", "\u00a0",
          " ", " ", "a", "b", "x1", "0", "12", ".", "-"]


def test_the_reader_agrees_with_a_per_character_reader():
    rng = random.Random(42)
    kinds = set()
    for _ in range(2000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(30)))
        first = rng.randint(1, 5)
        expected = outcome(lambda: reference_tokenize(text, first))
        assert outcome(lambda: tokenize(text, first)) == expected, text
        expected = outcome(lambda: reference_nest(reference_tokenize(text)))
        assert outcome(lambda: read_sexprs(text)) == expected, text
        assert outcome(lambda: build_sexprs(tokenize(text))) == expected, text
        kinds.add(expected[1].split(" (")[0] if expected[:1] == ("error",)
                  else "read")
    # every outcome occurs, so no branch of the reader went untested
    assert kinds == {"read", "unbalanced ')'", "unbalanced '('",
                     "unterminated string literal"}
