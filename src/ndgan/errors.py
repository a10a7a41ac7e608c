"""Exception types shared across the package; ``check``, the JSON schema walk behind SchemaError;
``read_json``, the one reader of the JSON files it checks; and ``read_bytes`` and ``read_struct``,
the one bounded read of every binary file.

Every error raised on purpose carries enough structure (op names, shapes,
offsets, step numbers) for a caller to act on it without parsing messages.
"""

from __future__ import annotations

import json
import os
import reprlib
import struct


class NdganError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ShapeMismatch(NdganError):
    """An operation received tensors whose shapes do not conform."""

    def __init__(self, op: str, *shapes, detail: str = ""):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        msg = f"{op}: incompatible shapes {' vs '.join(str(s) for s in self.shapes)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DomainError(NdganError):
    """An operation was evaluated outside its mathematical domain."""

    def __init__(self, op: str, detail: str):
        self.op = op
        super().__init__(f"{op}: {detail}")


class TapeError(NdganError):
    """Misuse of the differentiation tape (non-scalar output, detached node)."""


class ValidationError(NdganError):
    """Invalid user input: bad config values, missing files, out-of-range labels."""


class SchemaError(ValidationError):
    """A JSON document does not match its documented schema."""

    def __init__(self, path: str, detail: str):
        self.json_path = path
        super().__init__(f"schema violation at {path}: {detail}")


class Req:
    """Schema of an object key that must be present and not null."""

    def __init__(self, node):
        self.node = node


class Nullable:
    """Schema of an object key whose null counts as absent."""

    def __init__(self, node):
        self.node = node


class Where:
    """Schema ``node`` narrowed by ``test``; ``text`` names the values it allows."""

    def __init__(self, node, test, text: str):
        self.node, self.test, self.text = node, test, text


_TYPES = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str),
          list: ("a list", list), dict: ("an object", dict)}


def check(value, node, path: str = "$"):
    """Raise SchemaError at the first ``$.path`` where the JSON ``value`` breaks ``node``:
    ``int``, ``float`` (any number; never a bool) or ``str``; a tuple of the allowed values;
    ``[node]``, a list of them; ``{key: node}``, an object with only those keys, each node
    bare, in ``Req`` or in ``Nullable``; or a ``Where``."""
    if isinstance(node, Where):
        check(value, node.node, path)
        ok, what = node.test(value), node.text
    elif isinstance(node, tuple):
        ok, what = any(type(value) is type(c) and value == c for c in node), f"one of {list(node)}"
    else:
        what, types = _TYPES.get(type(node)) or _TYPES[node]
        ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        raise SchemaError(path, f"must be {what}, got {reprlib.repr(value)}")
    if isinstance(node, list):
        for i, item in enumerate(value):
            check(item, node[0], f"{path}[{i}]")
    elif isinstance(node, dict):
        for key in sorted(set(value) - set(node)):
            raise SchemaError(f"{path}.{key}", "unknown field")
        for key, field in node.items():
            if value.get(key) is not None:
                check(value[key], field.node if isinstance(field, (Req, Nullable)) else field, f"{path}.{key}")
            elif key in value and not isinstance(field, Nullable):
                raise SchemaError(f"{path}.{key}", "must not be null")
            elif key not in value and isinstance(field, Req):
                raise SchemaError(f"{path}.{key}", "missing required field")


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a ValidationError naming ``what`` where the
    file is missing or is a directory, a FormatError where it is not UTF-8, and a SchemaError
    at ``$`` where it does not parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"{what} is a directory, not a file: {path}") from None
    except UnicodeDecodeError:
        raise FormatError(str(path), "not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past Python's digit limit, or deep nesting
        raise SchemaError("$", f"{what} is not valid JSON: {exc}") from None


def read_bytes(fh, size: int, source: str, what: str) -> bytes:
    """The next ``size`` bytes of the binary file ``fh``; a FormatError at their offset, naming
    ``what``, where fewer are left. The size is checked first, so a forged size reads nothing."""
    at = fh.tell()
    left = os.fstat(fh.fileno()).st_size - at
    if size > left:
        raise FormatError(source, f"truncated {what}: expected {size} bytes, got {left}", offset=at)
    return fh.read(size)


def read_struct(fh, fmt: str, source: str, what: str) -> tuple:
    """``read_bytes`` of one ``struct`` record, unpacked."""
    return struct.unpack(fmt, read_bytes(fh, struct.calcsize(fmt), source, what))


class FormatError(NdganError):
    """A binary or text file does not parse (bad magic, truncation, ragged rows)."""

    def __init__(self, source: str, detail: str, offset: int | None = None):
        self.source = source
        self.offset = offset
        loc = f" at byte {offset}" if offset is not None else ""
        super().__init__(f"{source}{loc}: {detail}")


class TrainingDiverged(NdganError):
    """A loss became non-finite during training."""

    def __init__(self, step: int, loss_name: str, value: float):
        self.step = step
        self.loss_name = loss_name
        self.value = value
        super().__init__(f"{loss_name} became non-finite ({value}) at step {step}")


class FrozenModelError(NdganError):
    """Attempted to mutate a model that has been frozen after training."""
