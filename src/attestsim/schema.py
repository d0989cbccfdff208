"""The input front door: one YAML reader and one shape walker.

:func:`read_yaml` recognises a document's size and nesting before it is
composed; :func:`check_shape` then checks it against a shape of plain data.
A shape is a type or a tuple of types (``bool`` passes only where it is
named, never as ``int`` or ``float``, and a ``float`` must be finite);
``[shape]``, a list of that shape; ``{key: shape}``, a mapping with no other
keys, whose :class:`Required` keys must be present (``{str: shape}`` takes
any string key); or a ``set`` of literals, one of which the value must be.
"""

import io
import math
from typing import Optional

import yaml

# the safe loader on libyaml's parser where the installed PyYAML has it
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
MAX_DOCUMENT_CHARS = 1 << 20
MAX_DEPTH = 64  # collections inside collections
# what can open a collection without indenting: flow brackets, explicit keys,
# block-sequence dashes (a dash as the document's last character opens one too)
_OPENERS = ("[", "{", "?", "- ", "-\t", "-\n", "-\r")
_NAMES = {dict: "mapping", list: "list", str: "string", int: "integer", float: "number",
          bool: "boolean", type(None): "null"}


class Required(str):
    """A key of a mapping shape that the document must carry."""


def check_shape(value, shape, where: str, error) -> None:
    """Raise ``error("<where>: ...")`` at the first place ``value`` leaves ``shape``."""
    if isinstance(shape, set):
        if value not in list(shape):
            raise error(f"{where}: {value!r} is not one of {sorted(shape)}")
    elif isinstance(shape, list):
        check_shape(value, list, where, error)
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{i}]", error)
    elif isinstance(shape, dict):
        check_shape(value, dict, where, error)
        for key, item in value.items():
            if str in shape:
                check_shape(key, str, f"{where} key", error)
            elif key not in shape:
                raise error(f"{where}: unknown key {key!r}")
            check_shape(item, shape.get(str, shape.get(key)), f"{where}.{key}", error)
        for key in shape:
            if isinstance(key, Required) and key not in value:
                raise error(f"{where}: missing {key!r}")
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            expected = " or ".join(_NAMES[k] for k in kinds)
            raise error(f"{where}: expected {expected}, not "
                        f"{_NAMES.get(type(value), type(value).__name__)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{where}: expected a finite number, not {value}")


def read_yaml(text, name: Optional[str] = None):
    """Load one YAML document (text or bytes) with the safe loader.

    A document longer than :data:`MAX_DOCUMENT_CHARS` or nesting collections
    deeper than :data:`MAX_DEPTH` is refused with ``yaml.YAMLError`` before
    it is composed (composing 50,000 levels overflows the C stack).  The
    nesting scan runs only past a cheap count of ``_OPENERS``: with at most
    ``MAX_DEPTH`` of them, only indentation nests further, and level *k* of
    that costs *k* leading characters, so under the size limit it stays
    below sqrt(2 * MAX_DOCUMENT_CHARS), about 1,450 levels.  libyaml composes
    that cleanly; the pure-Python composer recurses once per level and may
    run out of stack, which is refused with ``yaml.YAMLError`` too.
    ``name`` marks errors the way a file's name does.
    """
    if len(text) > MAX_DOCUMENT_CHARS:
        raise yaml.YAMLError(f"document is longer than {MAX_DOCUMENT_CHARS} characters")

    def source():
        if name is None:
            return text
        stream = io.StringIO(text)
        stream.name = name
        return stream

    chars = text.decode("latin-1") if isinstance(text, bytes) else text
    if sum(map(chars.count, _OPENERS)) + chars.endswith("-") > MAX_DEPTH:
        depth = 0
        for event in yaml.parse(source(), Loader=YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise yaml.YAMLError(f"document nests deeper than {MAX_DEPTH} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    try:
        return yaml.load(source(), Loader=YAML_LOADER)
    except RecursionError:
        raise yaml.YAMLError("document nests too deeply to compose") from None
