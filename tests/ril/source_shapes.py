"""Methods whose source block ends somewhere unusual, one shape each.

tests/ril/test_source_text.py reads every one of them off its code
object's line table and checks the text parses and lowers exactly as
``inspect.getsource``'s does.  A string with lines at column 0 only
dedents at module level, so that shape is a function.  ``no_final_newline``
must stay the last function, and this file must keep ending without a
newline.
"""


def _tag(fn):
    return fn


def _named(label):
    def deco(fn):
        return fn
    return deco


class Shapes:
    @_tag
    @_named(
        "stacked",
    )
    def stacked_decorators(self, x):
        return x

    def multiline_signature(self, first,
                            second=(1,
                                    2),
                            *rest):
        return first

    def multiline_call_last(self, x):
        return max(
            x,
            0,
        )

    def triple_quoted_last(self):
        return """one
        two
        """

    def trailing_else_pass(self, x):
        if x:
            return 1
        else:
            pass

    def trailing_comment(self, x):
        return x
        # an indented comment after the last statement

    def trailing_ellipsis(self, x):
        y = x
        ...

    def nested_def_last(self, x):
        def inner(y):
            return y

    def one_line(self): return 1
    label = "a class attribute right after a one-line def"

    def dead_code_after_try(self, n):
        try:
            raise ValueError(n)
        except ValueError:
            return 1
        return 0

    def trailing_global(self, x):
        y = x
        global _unused


def trailing_column0_string(x):
    x = 1
    return """
at column 0
"""


def no_final_newline(x):
    return x