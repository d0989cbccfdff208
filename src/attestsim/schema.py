"""One walker that checks an input document against a shape of plain data.

A shape is a type or a tuple of types (``bool`` passes only where it is
named, never as ``int`` or ``float``, and a ``float`` must be finite);
``[shape]``, a list of that shape; ``{key: shape}``, a mapping with no other
keys, whose :class:`Required` keys must be present (``{str: shape}`` takes
any string key); or a ``set`` of literals, one of which the value must be.
"""

import math

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
