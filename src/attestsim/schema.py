"""The input front door: one YAML reader and one shape checker.

:func:`read_yaml` recognises a document's size and nesting before it is
composed, then builds its values from the composed nodes if they form a
tree: no alias, no tagged collection, no scalar with a collection's tag and
no mapping key but a plain string.
:func:`check_shape` checks the result against a shape of plain data.
A shape is a type or a tuple of types (``bool`` passes only where it is
named, never as ``int`` or ``float``, and a ``float`` must be finite);
``[shape]``, a list of that shape; ``{key: shape}``, a mapping with no other
keys, whose :class:`Required` keys must be present (``{str: shape}`` takes
any string key); or a ``set`` of literals, one of which the value must be.
Each shape is compiled once into nested checkers, so a shape is a constant:
one changed after its first check keeps being checked as it was.
"""

import codecs
import io
import math
from typing import Optional

import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

# the safe loader on libyaml's parser where the installed PyYAML has it
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
MAX_DOCUMENT_CHARS = 1 << 20
MAX_DEPTH = 64  # collections inside collections
# what can open a collection without indenting: flow brackets, explicit keys,
# block-sequence dashes (a dash as the document's last character opens one too),
# folded onto "[" and "- " so that two counts find them all
_OPENERS = bytes.maketrans(b"{?\t\n\r", b"[[   ")
_NAMES = {dict: "mapping", list: "list", str: "string", int: "integer", float: "number",
          bool: "boolean", type(None): "null"}
_STR, _SEQ, _MAP = (f"tag:yaml.org,2002:{kind}" for kind in ("str", "seq", "map"))


class Required(str):
    """A key of a mapping shape that the document must carry."""


# --------------------------------------------------------------------------
# shapes
# --------------------------------------------------------------------------


class _Miss(Exception):
    """A value left its shape: ``detail`` says how, and ``path`` grows
    toward the root (``[3].name``) as the failure unwinds."""

    def __init__(self, detail: str):
        self.detail = detail
        self.path = ""


def _compile_kinds(kinds: tuple):
    expected = " or ".join(_NAMES[k] for k in kinds)
    refuses_bool = isinstance(False, kinds) and bool not in kinds
    takes_float = isinstance(0.0, kinds)

    def check(value):
        if not isinstance(value, kinds) or (refuses_bool and isinstance(value, bool)):
            raise _Miss(f"expected {expected}, not "
                        f"{_NAMES.get(type(value), type(value).__name__)}")
        if takes_float and isinstance(value, float) and not math.isfinite(value):
            raise _Miss(f"expected a finite number, not {value}")
    return check


def _compile(shape):
    """One checker for ``shape``: it returns, or raises :class:`_Miss`."""
    if isinstance(shape, set):
        options = list(shape)

        def check(value):
            if value not in options:
                raise _Miss(f"{value!r} is not one of {sorted(shape)}")
        return check

    if isinstance(shape, list):
        is_list, each = _compile(list), _compile(shape[0])

        def check(value):
            is_list(value)
            for i, item in enumerate(value):
                try:
                    each(item)
                except _Miss as miss:
                    miss.path = f"[{i}]{miss.path}"
                    raise
        return check

    if not isinstance(shape, dict):
        return _compile_kinds(shape if isinstance(shape, tuple) else (shape,))

    is_dict = _compile(dict)
    required = [key for key in shape if isinstance(key, Required)]
    if str in shape:
        is_key, each = _compile(str), _compile(shape[str])
        fields = None
    else:
        fields = {key: _compile(item) for key, item in shape.items()}

    def check(value):
        is_dict(value)
        for key, item in value.items():
            if fields is None:
                try:
                    is_key(key)
                except _Miss as miss:
                    miss.path = " key" + miss.path
                    raise
                field = each
            else:
                field = fields.get(key)
                if field is None:
                    raise _Miss(f"unknown key {key!r}")
            try:
                field(item)
            except _Miss as miss:
                miss.path = f".{key}{miss.path}"
                raise
        for key in required:
            if key not in value:
                raise _Miss(f"missing {key!r}")
    return check


# shape id -> (shape, checker); holding the shape keeps its id from being reused
_COMPILED: dict = {}


def check_shape(value, shape, where: str, error) -> None:
    """Raise ``error("<where>: ...")`` at the first place ``value`` leaves ``shape``."""
    entry = _COMPILED.get(id(shape))
    if entry is None:
        entry = _COMPILED[id(shape)] = (shape, _compile(shape))
    try:
        entry[1](value)
        return
    except _Miss as miss:
        message = f"{where}{miss.path}: {miss.detail}"
    raise error(message)


# --------------------------------------------------------------------------
# YAML
# --------------------------------------------------------------------------


def _walk(loader, root):
    """Build the values of the tree under ``root`` as ``yaml.load`` would:
    strings, lists and dicts here, other scalars by ``construct_object``,
    collections filled from a queue in the loader's breadth-first order (so
    the first scalar to fail is the one the loader names, and depth costs no
    stack).  ``ConstructorError`` at the node refuses what is not a tree: a
    node reached twice (an alias, to a scalar or a collection), a collection
    tagged other than a plain sequence or mapping, a scalar with a
    collection's tag, and a mapping key that is not a plain string (``<<``
    merges, ``=``).  So no alias multiplies the work after it.
    """
    construct = loader.construct_object
    seen = set()
    pending = []  # collections made but not filled yet, appended to while read

    def refuse(node, problem):
        return ConstructorError(None, None, f"found {problem}; only a tree is read",
                                node.start_mark)

    def build(node):
        if node in seen:
            raise refuse(node, "a node reached twice through an alias")
        seen.add(node)
        kind = node.__class__
        if kind is ScalarNode:
            if node.tag == _STR:
                return node.value
            data = construct(node)
            if loader.state_generators:  # a collection constructor left its filling
                raise refuse(node, f"a scalar tagged {node.tag}")
            return data
        if kind is SequenceNode and node.tag == _SEQ:
            data = []
        elif kind is MappingNode and node.tag == _MAP:
            data = {}
        else:
            raise refuse(node, f"a collection tagged {node.tag}")
        pending.append((node, data))
        return data

    document = build(root)
    for node, data in pending:
        if data.__class__ is list:
            data.extend([build(child) for child in node.value])
            continue
        pairs = node.value
        for key, _ in pairs:  # all keys before any value, whose scalar may fail
            if key.__class__ is not ScalarNode or key.tag != _STR:
                raise refuse(key, "a mapping key that is not a plain string")
            build(key)
        for key, value in pairs:
            data[key.value] = build(value)
    return document


def _openers(text) -> int:
    """How many collections ``text`` can open without indenting, counted in
    the characters the loader reads (bytes: UTF-16 by a byte-order mark,
    else UTF-8, whose bytes below 0x80 are the characters they spell)."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    elif text.startswith((codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)):
        text = text.decode("utf-16", "replace").encode()
    folded = text.translate(_OPENERS)
    return folded.count(b"[") + folded.count(b"- ") + folded.endswith(b"-")


def read_yaml(text, name: Optional[str] = None):
    """Load one YAML document (text or bytes) with the safe loader.

    A document longer than :data:`MAX_DOCUMENT_CHARS` or nesting collections
    deeper than :data:`MAX_DEPTH` is refused with ``yaml.YAMLError`` before
    it is composed (composing 50,000 levels overflows the C stack).  The
    nesting scan runs only past a cheap count of :func:`_openers`: with at
    most ``MAX_DEPTH`` of them, only indentation nests further, and level
    *k* of that costs *k* leading characters, so under the size limit it
    stays below sqrt(2 * MAX_DOCUMENT_CHARS), about 1,450 levels.
    libyaml composes that cleanly; the pure-Python composer recurses once per
    level and may run out of stack, which is refused with ``yaml.YAMLError``
    too.  :func:`_walk` then builds the values of a tree, as ``yaml.load``
    would, and refuses anything else with ``yaml.YAMLError``: an alias, a
    tagged collection, a scalar with a collection's tag, a key that is not
    a plain string.  ``name`` marks errors the way a file's name does.
    """
    if len(text) > MAX_DOCUMENT_CHARS:
        raise yaml.YAMLError(f"document is longer than {MAX_DOCUMENT_CHARS} characters")

    def source():
        if name is None:
            return text
        stream = io.StringIO(text)
        stream.name = name
        return stream

    if _openers(text) > MAX_DEPTH:
        depth = 0
        for event in yaml.parse(source(), Loader=YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise yaml.YAMLError(f"document nests deeper than {MAX_DEPTH} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    loader = YAML_LOADER(source())
    try:
        root = loader.get_single_node()
        return None if root is None else _walk(loader, root)
    except RecursionError:
        raise yaml.YAMLError("document nests too deeply to compose") from None
    finally:
        loader.dispose()
