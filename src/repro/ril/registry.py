"""The method-IR registry: (class name, method name) -> lowered body.

The paper's pipeline parses each application file with DRuby, emits JSON
CFGs, and at run time keeps "a mapping from class and method names and
positions to the JSON CFG", consulted whenever a wrapped method must be
statically checked.  This module is that mapping for the Python host:

* :meth:`CFGRegistry.register_function` lowers a live function object by
  reading its source block straight off its code object — the lines of
  ``co_filename`` from ``co_firstlineno`` (the first decorator) to the end
  of its line table — or an explicit ``__hb_source__``
  attribute for methods created from strings (the dev-mode reloader and
  metaprogramming substrates attach one);
* closure-captured variables are typed from the closure cells at
  registration time — run-time information feeding the static check, in
  the spirit of the whole system;
* :meth:`CFGRegistry.lookup` walks nothing: module methods mixed into many
  classes are registered per *including* class by the engine, matching the
  paper's per-mixin caching strategy;
* the front end runs once per source: the paper lowers each app file once
  and only *looks up* CFGs at run time, so re-registering a function
  (dev-mode reloads, repeated annotations, one closure factory granting
  many methods) is a memo hit.  The memo is keyed by the function's code
  object (identity) or by the source text when one is given, and stores
  the source-determined half of a :class:`MethodIR`: parameters, body and
  its fingerprint.  Captures, file and line are read on every
  registration; errors are never memoized.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import sys
import textwrap
import threading
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from .ir import Node
from .json_io import fingerprint
from .lower import LoweringError, lower_function


@dataclass(frozen=True)
class ParamSpec:
    """A formal parameter of a registered method."""

    name: str
    optional: bool = False  # has a default value
    vararg: bool = False    # *args


class Lowered:
    """What lowering one source produced: its parameters, its body and
    (computed on first use) the body's fingerprint.  One instance is shared
    by every registration of that source; IR nodes are frozen, so the
    sharing is safe."""

    __slots__ = ("origin", "params", "body", "_digest")

    def __init__(self, params: Tuple[ParamSpec, ...], body: Node,
                 origin: object = None) -> None:
        #: the code object a code-keyed memo entry was lowered for (the
        #: entry holds it, so its ``id`` key cannot be reused).
        self.origin = origin
        self.params = params
        self.body = body
        self._digest: Optional[str] = None

    @property
    def digest(self) -> str:
        digest = self._digest
        if digest is None:
            digest = self._digest = fingerprint(self.body)
        return digest


@dataclass(frozen=True)
class MethodIR:
    """A lowered method body plus everything the checker needs."""

    owner: str
    name: str
    params: Tuple[ParamSpec, ...]
    body: Node
    source_file: str = "<unknown>"
    source_line: int = 0
    captures: Mapping[str, object] = field(default_factory=dict)
    #: the registry's shared lowering (None when built by hand).
    lowered: Optional[Lowered] = field(default=None, compare=False,
                                       repr=False)

    @property
    def fingerprint(self) -> str:
        lowered = self.lowered
        return (lowered.digest if lowered is not None
                else fingerprint(self.body))

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)


class RegistrationError(ValueError):
    """Raised when a function's source cannot be found or lowered."""


#: front-end memo bound (distinct sources per registry); past it the
#: oldest entry is dropped and its source is lowered again on next use.
MEMO_MAX = 1024


class CFGRegistry:
    """Maps (class, method) to :class:`MethodIR`.

    ``memo=False`` lowers on every registration (the cache-free oracle).
    ``lowerings`` counts front-end runs (parse + lower, failed ones too)
    and ``memo_hits`` the registrations served from the memo; both are
    exact when registrations are serialized, as the engine's writer lock
    does.
    """

    def __init__(self, *, memo: bool = True) -> None:
        self._methods: Dict[Tuple[str, str], MethodIR] = {}
        self._memo: Optional[Dict[Hashable, Lowered]] = {} if memo else None
        self._memo_lock = threading.Lock()
        self.lowerings = 0
        self.memo_hits = 0

    def register_function(self, owner: str, name: str, fn: Any,
                          captures: Optional[Mapping[str, object]] = None
                          ) -> MethodIR:
        """Lower ``fn`` and register it under ``owner#name``.

        ``fn`` may be a plain function, a closure produced by
        metaprogramming (free variables are typed from the closure cells),
        or a function with an ``__hb_source__`` attribute carrying its
        source text (for methods created via ``exec``).
        """
        fn = inspect.unwrap(getattr(fn, "__func__", fn))
        lowered = self._front_end(owner, name,
                                  getattr(fn, "__hb_source__", None), fn)
        code = getattr(fn, "__code__", None)
        return self._register(owner, name, lowered,
                              "<unknown>" if code is None
                              else code.co_filename,
                              0 if code is None else code.co_firstlineno,
                              captures or _closure_captures(fn))

    def register_source(self, owner: str, name: str, source: str,
                        captures: Optional[Mapping[str, object]] = None,
                        source_file: str = "<string>") -> MethodIR:
        """Lower and register a method from raw source text."""
        lowered = self._front_end(owner, name, source)
        return self._register(owner, name, lowered, source_file, 0,
                              captures or {})

    def register_ir(self, mir: MethodIR) -> MethodIR:
        """Register an already-lowered method (e.g. loaded from JSON)."""
        self._methods[(mir.owner, mir.name)] = mir
        return mir

    def _register(self, owner: str, name: str, lowered: Lowered,
                  source_file: str, source_line: int,
                  captures: Mapping[str, object]) -> MethodIR:
        mir = MethodIR(owner=owner, name=name, params=lowered.params,
                       body=lowered.body, source_file=source_file,
                       source_line=source_line, captures=dict(captures),
                       lowered=lowered)
        self._methods[(owner, name)] = mir
        return mir

    # -- the front end and its memo -----------------------------------------

    def _front_end(self, owner: str, name: str, source: Optional[str],
                   fn: Any = None) -> Lowered:
        """Lower ``source``, or else ``fn``'s source, through the memo.

        Text is keyed by content.  A function without text is keyed by
        its code object's identity, not equality: equal code can come
        from different source (a local's annotation is not compiled, but
        it is lowered to a cast).  Failures raise before the memo is
        written, so they repeat on every attempt.
        """
        code = None
        key: Optional[Hashable] = source
        if source is None:
            code = getattr(fn, "__code__", None)
            key = None if code is None else id(code)
        memo = self._memo
        if memo is not None and key is not None:
            lowered = memo.get(key)
            if lowered is not None and lowered.origin is code:
                self.memo_hits += 1
                return lowered
        if source is None:
            try:
                source = _read_source(fn)
            except (OSError, TypeError) as exc:
                raise RegistrationError(
                    f"no source available for {owner}#{name}: {exc}"
                ) from None
        self.lowerings += 1
        tree = _parse_def(source)
        try:
            body = lower_function(tree)
        except LoweringError as exc:
            raise RegistrationError(
                f"cannot lower {owner}#{name}: {exc}") from exc
        lowered = Lowered(_params_of(tree), body, code)
        if memo is not None and key is not None:
            with self._memo_lock:
                if len(memo) >= MEMO_MAX and key not in memo:
                    del memo[next(iter(memo))]  # the oldest entry
                memo[key] = lowered
        return lowered

    # -- queries ------------------------------------------------------------

    def lookup(self, owner: str, name: str) -> Optional[MethodIR]:
        return self._methods.get((owner, name))

    def forget(self, owner: str, name: str) -> None:
        self._methods.pop((owner, name), None)

    def methods_of(self, owner: str) -> Tuple[MethodIR, ...]:
        return tuple(m for (o, _), m in self._methods.items() if o == owner)

    def keys(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._methods)

    def __len__(self) -> int:
        return len(self._methods)


def _parse_def(source: str) -> ast.FunctionDef:
    """Parse source text and return its first function definition."""
    text = textwrap.dedent(source)
    try:
        module = ast.parse(text)
    except SyntaxError as exc:
        raise RegistrationError(f"cannot parse method source: {exc}") from exc
    for node in ast.walk(module):
        if isinstance(node, ast.FunctionDef):
            return node
    raise RegistrationError("source contains no function definition")


def _params_of(fn: ast.FunctionDef) -> Tuple[ParamSpec, ...]:
    args = fn.args
    specs: List[ParamSpec] = []
    positional = list(args.posonlyargs) + list(args.args)
    n_defaults = len(args.defaults)
    for i, a in enumerate(positional):
        if i == 0 and a.arg in ("self", "cls"):
            continue
        optional = i >= len(positional) - n_defaults
        specs.append(ParamSpec(a.arg, optional=optional))
    if args.vararg is not None:
        specs.append(ParamSpec(args.vararg.arg, vararg=True))
    return tuple(specs)


def _closure_captures(fn: Any) -> Dict[str, object]:
    """Type the function's closure cells at registration time.

    When metaprogramming generates a method as a closure (Fig. 2's
    ``define_dynamic_method``), its free variables (``role_name``) are bound
    by the factory; we record their run-time types so the static check of
    the body has types for them.
    """
    from ..rtypes import type_of

    freevars = getattr(fn.__code__, "co_freevars", ())
    cells = getattr(fn, "__closure__", None) or ()
    out: Dict[str, object] = {}
    for name, cell in zip(freevars, cells):
        try:
            out[name] = type_of(cell.cell_contents)
        except ValueError:  # empty cell
            continue
    return out


def _read_source(fn: Any) -> str:
    """``fn``'s source block, read off its code object's line table.

    The block runs from ``co_firstlineno`` (the first decorator line, as
    ``inspect`` has it) to the largest end line in ``co_positions()`` over
    the code object and the code objects nested in its constants, then on
    over the lines indented deeper than the first: statements the
    compiler emitted no code for (dead code after a ``try`` whose every
    path returns, ``global``) and comments.  That is the text
    ``inspect.getsource`` returns, without running the tokenizer over the
    block.  ``linecache`` is revalidated first, so a module rewritten on
    disk and reloaded is read afresh.  Where there is no line table to
    read — Python 3.10, objects without ``__code__``, code compiled
    without position ranges, files ``linecache`` has no lines for — this
    is ``inspect.getsource``, which raises ``OSError`` when it finds
    nothing either.
    """
    code = getattr(fn, "__code__", None)
    if sys.version_info >= (3, 11):
        last = _last_line(code) if isinstance(code, CodeType) else None
        if last is not None:
            filename = code.co_filename
            linecache.checkcache(filename)
            lines = linecache.getlines(filename,
                                       getattr(fn, "__globals__", None))
            first = code.co_firstlineno - 1
            if 0 <= first < len(lines):
                head = lines[first]
                indent = len(head) - len(head.lstrip())
                end = last
                while end < len(lines):
                    body = lines[end].lstrip()
                    if body and len(lines[end]) - len(body) <= indent:
                        break
                    end += 1
                while end > last and not lines[end - 1].strip():
                    end -= 1  # blank lines before the next statement
                return "".join(lines[first:end])
    return inspect.getsource(fn)


if sys.version_info >= (3, 11):
    def _last_line(code: CodeType) -> Optional[int]:
        """The largest line any instruction of ``code`` or of a code
        object nested in its constants ends on; None when the code was
        compiled without position ranges (``-X no_debug_ranges``), whose
        end lines stop at the first line of a multi-line expression."""
        last = code.co_firstlineno
        for start, end, col, _ in code.co_positions():
            if start is not None and col is None:
                return None
            if end is not None and end > last:
                last = end
        for const in code.co_consts:
            if isinstance(const, CodeType):
                inner = _last_line(const)
                if inner is None:
                    return None
                last = max(last, inner)
        return last
