"""Spec synthesis: F/M/C/R user functions -> vectorized kernel specs.

The static kernel compiler's first output (the communication planner is
:mod:`repro.analysis.compile.commplan`): recover each user function's
AST exactly like the staticpass analyzer does, lower the body into the
restricted expression IR (:mod:`repro.analysis.compile.exprs`), and —
when every slot fits a pattern whose vectorized execution is provably
bit-identical to the interpreted kernel — emit an
:class:`~repro.runtime.vectorized.specs.EdgeMapSpec` /
:class:`~repro.runtime.vectorized.specs.VertexMapSpec` automatically.
Any unsupported construct makes :func:`synthesize_vertex_spec` /
:func:`synthesize_edge_spec` return ``None`` and the kernel stays
interpreted — synthesis is an optimization, never a semantic fork.

Edge kernels are synthesized **per traversal direction** and the spec
pins ``only_mode`` to it, because the interpreted push and pull kernels
read written properties differently:

* sparse (push) evaluates every slot against the *committed* snapshot
  (C on a committed view, F/M on a fresh per-arc working view, R's fold
  seeded with the snapshot) — so ``value`` may read the written
  property freely (it compiles to the committed column) and the reduce
  op is taken from R's fold pattern (``min``/``max``/``sum`` folds, a
  fold that keeps its last temp (``return t``), or a constant write);
* dense (pull) applies M sequentially to a *live* working view, so a
  value reading the written property must match a running-combine form
  (``d.p = min(d.p, V)`` -> ``reduce="min"``, ``d.p = d.p + V`` ->
  ``"sum"``) and C/F may only read written properties through the
  recognized write-once (``cond_unvisited``) and ``"improve"``
  patterns — anything else would observe mid-scan state the one-shot
  mask cannot reproduce, so it is refused.

The write-once C (``target.prop == sentinel``) is only accepted when
the post-write value provably differs from the sentinel (a constant
write of a different value, or a vertex id against a negative
sentinel); otherwise the condition survives as a general mask where
that is sound (sparse) and the kernel is refused where it is not
(dense).
"""

from __future__ import annotations

import ast
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.compile.exprs import (
    _CONST_TYPES,
    Binary,
    BoolOp,
    Compare,
    Const,
    Expr,
    FreshObject,
    Lowerer,
    MinMax,
    Prop,
    Special,
    Unsupported,
    Where,
    compile_edge,
    compile_vertex,
    compile_vertex_column,
    reads,
)
from repro.analysis.staticpass.analyzer import (
    _find_def,
    _module_tree,
    _resolve_name,
    _unwrap,
)
from repro.core.primitives import ctrue
from repro.runtime.vectorized.specs import NOT_SET, EdgeMapSpec, VertexMapSpec

__all__ = [
    "synthesize_vertex_spec",
    "synthesize_edge_spec",
    "explain_vertex",
    "explain_edge",
    "clear_cache",
    "force_synthesis",
    "synthesis_forced",
]

#: When set (see :func:`force_synthesis`), compile-mode engines prefer a
#: synthesized spec even for kernels that carry a hand-written one — the
#: cross-validation switch used by
#: :func:`repro.analysis.compile.crosscheck.cross_validate`.
_force = False


def synthesis_forced() -> bool:
    return _force


@contextmanager
def force_synthesis() -> Iterator[None]:
    """Make engines constructed inside the block replace hand-written
    specs with synthesized ones (where synthesis succeeds), so the two
    can be compared bit-identically."""
    global _force
    prev = _force
    _force = True
    try:
        yield
    finally:
        _force = prev


def _is_ctrue(fn: Optional[Callable]) -> bool:
    return fn is None or fn is ctrue


# ---------------------------------------------------------------------------
# Source recovery (same machinery as the staticpass analyzer)
# ---------------------------------------------------------------------------
def _prepare(fn: Callable, roles: Tuple[str, ...]):
    """Recover ``fn``'s AST and build the lowering environment.
    Returns ``(body_statements, env, resolve)``; raises
    :class:`Unsupported` when the source cannot be recovered."""
    inner, leading, trailing = _unwrap(fn)
    code = getattr(inner, "__code__", None)
    if code is None:
        raise Unsupported("no recoverable source")
    tree = _module_tree(code.co_filename)
    node = _find_def(tree, code) if tree is not None else None
    if node is None:
        raise Unsupported("function AST not found")
    params = [a.arg for a in node.args.args]
    full_roles: List[Optional[str]] = [None] * leading + list(roles)
    env: Dict[str, str] = {}
    for i, name in enumerate(params):
        role = full_roles[i] if i < len(full_roles) else None
        if role is not None:
            env[name] = role
    bound: Dict[str, Any] = {}
    if trailing:
        tail = params[max(len(params) - len(trailing), 0):]
        bound = dict(zip(tail, trailing[-len(tail):] if tail else ()))

    def resolve(name: str) -> Tuple[bool, Any]:
        if name in bound:
            return True, bound[name]
        return _resolve_name(inner, name)

    if isinstance(node, ast.Lambda):
        body: List[ast.stmt] = [ast.Return(value=node.body)]
    else:
        body = list(node.body)
    return body, env, resolve


_OPAQUE = object()


def _value_key(value: Any) -> Any:
    """What lowering can make of a bound or captured value: a constant
    becomes a ``Const`` (keyed with its type — ``0`` and ``0.0`` lower to
    different dtypes), a builtin function or type may be a recognized
    callee (keyed by identity), and anything else is refused whatever
    it is."""
    if isinstance(value, _CONST_TYPES):
        return (type(value), value)
    if isinstance(value, (types.BuiltinFunctionType, type)):
        return value
    return _OPAQUE


def _cache_key(kind: str, *fns: Optional[Callable]) -> Optional[Tuple]:
    """A memoization key covering everything synthesis consults: code
    objects, ``partial`` leading counts, and every value lowering may
    fold in — the trailing bound values and whatever the code's
    closure/global names resolve to (two closures of one code object
    over different constants must not share a spec).  ``None`` when a
    function has no code object."""
    parts: List[Any] = [kind]
    for fn in fns:
        if fn is None:
            parts.append(None)
            continue
        inner, leading, trailing = _unwrap(fn)
        code = getattr(inner, "__code__", None)
        if code is None:
            return None
        env = []
        for name in code.co_freevars + code.co_names:
            found, value = _resolve_name(inner, name)
            env.append(_value_key(value) if found else None)
        bound = tuple(_value_key(v) for v in trailing)
        parts.append((code, leading, bound, tuple(env)))
    return tuple(parts)


_cache: Dict[Tuple, Tuple[Optional[Any], str]] = {}


def clear_cache() -> None:
    _cache.clear()


# ---------------------------------------------------------------------------
# Statement lowering (shared by VERTEXMAP M, EDGEMAP M and R)
# ---------------------------------------------------------------------------
class _Body:
    """The effect of one function body: staged writes (``pending``, in
    program order, with sequential-read substitution) plus which role
    parameter it returns."""

    def __init__(self, pending: Dict[str, Expr], returned: Optional[str]):
        self.pending = pending
        self.returned = returned


def _lower_body(
    stmts: List[ast.stmt],
    env: Dict[str, str],
    resolve: Callable,
    writable: str,
) -> _Body:
    pending: Dict[str, Expr] = {}

    def read_hook(role: str, prop: str) -> Optional[Expr]:
        if role == writable:
            return pending.get(prop)
        return None

    lowerer = Lowerer(env, resolve, read_hook)
    returned: Optional[str] = None

    def run(stmt_list: List[ast.stmt], staged: Dict[str, Expr]) -> None:
        nonlocal returned
        for i, stmt in enumerate(stmt_list):
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring
            if isinstance(stmt, ast.Return):
                if staged is not pending or i != len(stmt_list) - 1:
                    raise Unsupported("early return")
                if stmt.value is None:
                    return
                if isinstance(stmt.value, ast.Name) and stmt.value.id in env:
                    returned = env[stmt.value.id]
                    return
                raise Unsupported("return of a non-parameter")
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1:
                    raise Unsupported("multiple assignment targets")
                _store(stmt.targets[0], lowerer.lower(stmt.value), staged)
            elif isinstance(stmt, ast.AugAssign):
                target = stmt.target
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                ):
                    raise Unsupported("augmented assignment target")
                current = lowerer.lower(target)
                value = lowerer.lower(stmt.value)
                op = {
                    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
                    ast.FloorDiv: "//", ast.Mod: "%",
                }.get(type(stmt.op))
                if op is None:
                    raise Unsupported("augmented operator")
                _store(target, Binary(op, current, value), staged, lowered=True)
            elif isinstance(stmt, ast.If):
                cond = lowerer.lower(stmt.test)
                then_staged = dict(staged)
                else_staged = dict(staged)
                run_branch(stmt.body, then_staged)
                run_branch(stmt.orelse, else_staged)
                if set(then_staged) != set(else_staged):
                    raise Unsupported("branches write different properties")
                for prop in then_staged:
                    a, b = then_staged[prop], else_staged[prop]
                    staged[prop] = a if a == b else Where(cond, a, b)
            else:
                raise Unsupported(f"statement {type(stmt).__name__}")

    def run_branch(stmt_list: List[ast.stmt], staged: Dict[str, Expr]) -> None:
        # Branch bodies may assign and nest Ifs but not return.
        for stmt in stmt_list:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1:
                    raise Unsupported("multiple assignment targets")
                # reads inside a branch see that branch's staged writes
                branch_lowerer = Lowerer(
                    env, resolve,
                    lambda role, prop: staged.get(prop) if role == writable else None,
                )
                _store(stmt.targets[0], branch_lowerer.lower(stmt.value), staged)
            elif isinstance(stmt, ast.If):
                branch_lowerer = Lowerer(
                    env, resolve,
                    lambda role, prop: staged.get(prop) if role == writable else None,
                )
                cond = branch_lowerer.lower(stmt.test)
                then_staged = dict(staged)
                else_staged = dict(staged)
                run_branch(stmt.body, then_staged)
                run_branch(stmt.orelse, else_staged)
                if set(then_staged) != set(else_staged):
                    raise Unsupported("branches write different properties")
                for prop in then_staged:
                    a, b = then_staged[prop], else_staged[prop]
                    staged[prop] = a if a == b else Where(cond, a, b)
            else:
                raise Unsupported(f"statement {type(stmt).__name__} in branch")

    def _store(
        target: ast.AST, value: Expr, staged: Dict[str, Expr], lowered: bool = False
    ) -> None:
        if not (
            isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
        ):
            raise Unsupported("assignment to a non-property target")
        role = env.get(target.value.id)
        if role is None:
            raise Unsupported("assignment through a non-role name")
        if role != writable:
            raise Unsupported(f"write to the {role} role")
        attr = target.attr
        if attr.startswith("_"):
            raise Unsupported("private property write")
        staged[attr] = value

    run(stmts, pending)
    return _Body(pending, returned)


def _lower_predicate(
    fn: Callable, roles: Tuple[str, ...]
) -> Expr:
    """Lower a pure single-``return`` predicate/filter (F or C)."""
    stmts, env, resolve = _prepare(fn, roles)
    meaningful = [
        s for s in stmts
        if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
    ]
    if len(meaningful) != 1 or not isinstance(meaningful[0], ast.Return):
        raise Unsupported("filter is not a single return")
    value = meaningful[0].value
    if value is None:
        raise Unsupported("filter returns nothing")
    return Lowerer(env, resolve).lower(value)


def _prop_names(*exprs: Optional[Expr]) -> Tuple[str, ...]:
    names = set()
    for expr in exprs:
        if expr is not None:
            names |= {name for _role, name in reads(expr)}
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# VERTEXMAP synthesis
# ---------------------------------------------------------------------------
def synthesize_vertex_spec(F, M) -> Optional[VertexMapSpec]:
    """Compile a VERTEXMAP's (F, M) into a :class:`VertexMapSpec`, or
    ``None`` when either slot falls outside the compilable subset."""
    spec, _reason = explain_vertex(F, M)
    return spec


def explain_vertex(F, M) -> Tuple[Optional[VertexMapSpec], str]:
    """Like :func:`synthesize_vertex_spec` but also returns the refusal
    reason (``"ok"`` on success) — for plan artifacts."""
    key = _cache_key("vertex", None if _is_ctrue(F) else F, M)
    if key is not None and key in _cache:
        return _cache[key]
    try:
        result: Tuple[Optional[VertexMapSpec], str] = (_synth_vertex(F, M), "ok")
    except Unsupported as exc:
        result = (None, str(exc))
    if key is not None:
        _cache[key] = result
    return result


def _synth_vertex(F, M) -> VertexMapSpec:
    if _is_ctrue(F):
        F = None
    if F is None and M is None:
        raise Unsupported("no user functions")

    filter_expr: Optional[Expr] = None
    if F is not None:
        filter_expr = _lower_predicate(F, ("self",))

    map_fn = None
    writes: Tuple[str, ...] = ()
    column_exprs: Dict[str, Expr] = {}
    if M is not None:
        stmts, env, resolve = _prepare(M, ("self",))
        body = _lower_body(stmts, env, resolve, writable="self")
        column_exprs = body.pending
        writes = tuple(column_exprs)
        col_fns = {
            prop: compile_vertex_column(expr)
            for prop, expr in column_exprs.items()
        }

        def map_fn(k, _fns=col_fns):
            return {prop: fn(k) for prop, fn in _fns.items()}

    read_names = _prop_names(filter_expr, *column_exprs.values())
    return VertexMapSpec(
        map=map_fn,
        filter=compile_vertex(filter_expr) if filter_expr is not None else None,
        reads=read_names,
        writes=writes,
    )


# ---------------------------------------------------------------------------
# EDGEMAP synthesis
# ---------------------------------------------------------------------------
def synthesize_edge_spec(kind: str, F, M, C, R) -> Optional[EdgeMapSpec]:
    """Compile an EDGEMAP's slots into an :class:`EdgeMapSpec` pinned to
    ``kind``'s traversal direction (``edge_map_dense`` /
    ``edge_map_sparse``), or ``None`` when refused."""
    spec, _reason = explain_edge(kind, F, M, C, R)
    return spec


def explain_edge(kind: str, F, M, C, R) -> Tuple[Optional[EdgeMapSpec], str]:
    mode = "dense" if kind == "edge_map_dense" else "sparse"
    key = _cache_key(
        kind,
        None if _is_ctrue(F) else F,
        M,
        None if _is_ctrue(C) else C,
        R if mode == "sparse" else None,
    )
    if key is not None and key in _cache:
        return _cache[key]
    try:
        result: Tuple[Optional[EdgeMapSpec], str] = (
            _synth_edge(mode, F, M, C, R), "ok"
        )
    except Unsupported as exc:
        result = (None, str(exc))
    if key is not None:
        _cache[key] = result
    return result


def _written_prop_expr(M) -> Tuple[Optional[str], Optional[Expr], Optional[str]]:
    """Lower M and return ``(prop, value_expr, returned_role)``; a
    write-free M yields ``(None, None, role)``."""
    stmts, env, resolve = _prepare(M, ("source", "target"))
    body = _lower_body(stmts, env, resolve, writable="target")
    if len(body.pending) > 1:
        raise Unsupported("M writes more than one property")
    if not body.pending:
        return None, None, body.returned
    (prop, expr), = body.pending.items()
    return prop, expr, body.returned


def _self_combine(expr: Expr, prop: str) -> Optional[Tuple[str, Expr]]:
    """Match the running-combine forms over the written property:
    ``min/max(d.p, V)`` -> ``(op, V)``, ``d.p + V`` -> ``("sum", V)``.
    ``None`` when the expression is not such a form."""
    target_read = Prop("target", prop)
    if isinstance(expr, MinMax) and len(expr.args) == 2:
        a, b = expr.args
        if a == target_read and (("target", prop) not in reads(b)):
            return expr.op, b
        if b == target_read and (("target", prop) not in reads(a)):
            return expr.op, a
    if isinstance(expr, Binary) and expr.op == "+":
        if expr.left == target_read and (("target", prop) not in reads(expr.right)):
            return "sum", expr.right
        if expr.right == target_read and (("target", prop) not in reads(expr.left)):
            return "sum", expr.left
    return None


def _provably_not(value_expr: Optional[Expr], sentinel: Any) -> bool:
    """Whether the value a qualifying edge writes provably differs from
    ``sentinel`` — the soundness condition for ``cond_unvisited``
    (committed non-sentinel values mean 'already visited', and in dense
    mode the scan must stop right after the first application)."""
    if isinstance(value_expr, Const):
        return value_expr.value != sentinel
    if isinstance(value_expr, Special) and value_expr.attr == "id":
        # vertex ids are >= 0
        return (
            isinstance(sentinel, (int, float))
            and not isinstance(sentinel, bool)
            and sentinel < 0
        )
    return False


def _match_sentinel(cond_expr: Expr, prop: str) -> Optional[Any]:
    """``target.prop == <const>`` (either orientation) -> the sentinel."""
    if not (isinstance(cond_expr, Compare) and cond_expr.op == "=="):
        return None
    target_read = Prop("target", prop)
    if cond_expr.left == target_read and isinstance(cond_expr.right, Const):
        return cond_expr.right.value
    if cond_expr.right == target_read and isinstance(cond_expr.left, Const):
        return cond_expr.left.value
    return None


def _match_improve(f_expr: Expr, prop: str, value_expr: Expr) -> Optional[str]:
    """``E < d.prop`` / ``d.prop > E`` (with E the value expression) ->
    ``"min"``; the mirrored forms -> ``"max"``."""
    target_read = Prop("target", prop)
    if not isinstance(f_expr, Compare):
        return None
    if f_expr.op == "<" and f_expr.left == value_expr and f_expr.right == target_read:
        return "min"
    if f_expr.op == ">" and f_expr.left == target_read and f_expr.right == value_expr:
        return "min"
    if f_expr.op == ">" and f_expr.left == value_expr and f_expr.right == target_read:
        return "max"
    if f_expr.op == "<" and f_expr.left == target_read and f_expr.right == value_expr:
        return "max"
    return None


def _fold_pattern(R, m_prop: Optional[str]) -> Tuple[str, Optional[str], Optional[Expr]]:
    """Classify R's fold over the temps.  Returns ``(form, prop,
    const_expr)`` where form is ``"last"`` (keeps the final temp),
    ``"min"``/``"max"``/``"sum"`` (combining folds), or ``"const"``
    (stages a constant).  ``prop`` is the property R writes (``None``
    for plain ``return t``)."""
    stmts, env, resolve = _prepare(R, ("temp", "acc"))
    body = _lower_body(stmts, env, resolve, writable="acc")
    if not body.pending:
        if body.returned == "temp":
            return "last", None, None
        raise Unsupported("R neither writes nor keeps its temp")
    if len(body.pending) > 1:
        raise Unsupported("R writes more than one property")
    if body.returned == "temp":
        raise Unsupported("R writes the accumulator but returns its temp")
    (prop, expr), = body.pending.items()
    acc_read = Prop("acc", prop)
    temp_read = Prop("temp", prop)
    if isinstance(expr, Const):
        return "const", prop, expr
    if isinstance(expr, MinMax) and len(expr.args) == 2:
        if set(expr.args) == {acc_read, temp_read}:
            if m_prop != prop:
                raise Unsupported("R folds a property M does not stage")
            return expr.op, prop, None
    if isinstance(expr, Binary) and expr.op == "+":
        if {expr.left, expr.right} == {acc_read, temp_read}:
            if m_prop != prop:
                raise Unsupported("R folds a property M does not stage")
            return "sum", prop, None
    raise Unsupported("unrecognized reduce fold")


def _synth_edge(mode: str, F, M, C, R) -> EdgeMapSpec:
    if M is None:
        raise Unsupported("no map function")
    m_prop, m_expr, _m_ret = _written_prop_expr(M)

    # ---- reduce + value ------------------------------------------------
    if mode == "sparse":
        if R is None:
            raise Unsupported("sparse needs a reduce function")
        form, r_prop, const_expr = _fold_pattern(R, m_prop)
        if form == "last":
            if m_prop is None:
                raise Unsupported("last-temp fold over a write-free M")
            prop, reduce_, value_expr = m_prop, "last", m_expr
        elif form == "const":
            prop, reduce_, value_expr = r_prop, "last", const_expr
            if m_prop is not None and m_prop != prop:
                raise Unsupported("M and R write different properties")
        else:  # min / max / sum fold over the staged temps
            prop, reduce_, value_expr = r_prop, form, m_expr
        # every sparse slot evaluates against the committed snapshot, so
        # value expressions may read the written property freely
    else:
        prop = m_prop
        if prop is None:
            raise Unsupported("M writes nothing")
        combine = _self_combine(m_expr, prop)
        if combine is not None:
            reduce_, value_expr = combine
        elif ("target", prop) in reads(m_expr):
            raise Unsupported(
                "dense M reads its written property outside a running-combine form"
            )
        else:
            reduce_, value_expr = "last", m_expr

    # ---- condition -----------------------------------------------------
    cond_unvisited: Any = NOT_SET
    cond_expr: Optional[Expr] = None
    if not _is_ctrue(C):
        expr = _lower_predicate(C, ("target",))
        sentinel = _match_sentinel(expr, prop)
        provable_value = (
            value_expr
            if (mode == "sparse" and reduce_ == "last") or mode == "dense"
            else None
        )
        if sentinel is not None and mode == "dense":
            # dense write-once: the scan must provably stop after the
            # first application
            if reduce_ == "last" and _provably_not(value_expr, sentinel):
                cond_unvisited = sentinel
            else:
                raise Unsupported("dense C reads the written property")
        elif sentinel is not None and _provably_not(provable_value, sentinel):
            cond_unvisited = sentinel
        else:
            if mode == "dense" and ("target", prop) in reads(expr):
                raise Unsupported("dense C reads the written property")
            cond_expr = expr

    # ---- edge filter ---------------------------------------------------
    f_spec: Any = None
    f_expr: Optional[Expr] = None
    if not _is_ctrue(F):
        expr = _lower_predicate(F, ("source", "target"))
        if mode == "dense" and ("target", prop) in reads(expr):
            improve = _match_improve(expr, prop, value_expr)
            if improve is None or improve != reduce_:
                raise Unsupported("dense F reads the written property")
            f_spec = "improve"
        else:
            f_expr = expr

    if value_expr is None:
        raise Unsupported("no value expression")
    read_names = _prop_names(value_expr, cond_expr, f_expr)
    read_names = tuple(n for n in read_names if n != prop)
    spec = EdgeMapSpec(
        prop=prop,
        reduce=reduce_,
        value=compile_edge(_as_edge_expr(value_expr)),
        f=f_spec if f_spec is not None else (
            compile_edge(f_expr) if f_expr is not None else None
        ),
        cond_unvisited=cond_unvisited,
        cond=compile_vertex(_cond_as_vertex(cond_expr)) if cond_expr is not None else None,
        only_mode=mode,
        reads=read_names,
    )
    return spec


def _as_edge_expr(expr: Expr) -> Expr:
    """Value/filter expressions from R's fold reference the written
    property through the ``temp``/``acc`` roles in some patterns; the
    constant-fold case is the only one that survives to compilation, so
    nothing to rewrite — kept as a seam for future fold forms."""
    return expr


def _cond_as_vertex(expr: Expr) -> Expr:
    """C is lowered with the ``target`` role but compiled against a
    ``VertexBatch`` of candidate targets — rewrite roles to ``self``."""
    if isinstance(expr, Prop):
        return Prop("self", expr.name)
    if isinstance(expr, Special):
        return Special("self", expr.attr)
    if isinstance(expr, Compare):
        return Compare(expr.op, _cond_as_vertex(expr.left), _cond_as_vertex(expr.right))
    if isinstance(expr, Binary):
        return Binary(expr.op, _cond_as_vertex(expr.left), _cond_as_vertex(expr.right))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(_cond_as_vertex(op) for op in expr.operands))
    if isinstance(expr, MinMax):
        return MinMax(expr.op, tuple(_cond_as_vertex(a) for a in expr.args))
    if isinstance(expr, Where):
        return Where(
            _cond_as_vertex(expr.cond),
            _cond_as_vertex(expr.then),
            _cond_as_vertex(expr.otherwise),
        )
    from repro.analysis.compile.exprs import Abs, Unary

    if isinstance(expr, Unary):
        return Unary(expr.op, _cond_as_vertex(expr.operand))
    if isinstance(expr, Abs):
        return Abs(_cond_as_vertex(expr.operand))
    return expr
