"""Config tables: each key's type, default, range and scope, declared once.

`walk` reads a JSON object by a table (a dict of `Key`s) and returns its
typed values; a key that is unknown, out of scope, missing, of the wrong
type or out of range is a ConfigError (exit 2) whose message names it.
"""

import inspect
import sys

import numpy as np

from .errors import ConfigError

REQUIRED = inspect.Parameter.empty
ARRAY = "numeric array"


class Key:
    """One config key.

    type: float, int, bool, str, a tuple of the allowed values, ARRAY
    (finite, of any shape), [t] (a nonempty JSON array of t's) or a nested
    table, whose values go to `build` as keywords; an absent optional
    block reads as {}.  range: ">= x" or "> x", checked on every number.
    when: (key, values): the key applies only while its sibling `key`,
    listed earlier in the table, takes one of `values`.
    """

    def __init__(self, type, default=REQUIRED, range=None, when=None,
                 build=dict):
        self.type, self.default, self.range = type, default, range
        self.when, self.build = when, build

    def applies(self, values):
        return self.when is None or values[self.when[0]] in self.when[1]

    def parse(self, value, label):
        if isinstance(self.type, dict):
            return self.build(**walk(self.type, value, label))
        if not isinstance(self.type, list):
            return self._scalar(self.type, value, label)
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{label} must be a nonempty array, "
                              f"got {value!r}")
        return [self._scalar(self.type[0], v, label) for v in value]

    def _scalar(self, kind, value, label):
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{label} must be one of {list(kind)}, "
                              f"got {value!r}")
        if kind is ARRAY:
            try:
                value = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{label} must be numeric: {exc}") from exc
            if not np.all(np.isfinite(value)):
                raise ConfigError(f"{label} must be finite")
        if kind in (bool, str) and not isinstance(value, kind):
            raise ConfigError(f"{label} must be a {kind.__name__}, "
                              f"got {value!r}")
        if kind not in (int, float):
            return value
        # a JSON number: 64 and 64.0 pass as an int, 64.5 and "64" do not
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max \
                or (kind is int and value % 1):
            raise ConfigError(f"{label} must be a finite {kind.__name__}, "
                              f"got {value!r}")
        value = kind(value)
        op, bound = (self.range or ">= -inf").split()
        if not (value >= float(bound) if op == ">=" else value > float(bound)):
            raise ConfigError(f"{label} must be {self.range}, got {value!r}")
        return value


def table(target, **keys):
    """The table `keys`, in which a key declared without a default takes
    the default of `target`'s parameter of the same name, if any."""
    params = inspect.signature(target).parameters if target else {}
    for name, key in keys.items():
        if key.default is REQUIRED and name in params:
            key.default = params[name].default
    return keys


def walk(keys, block, where):
    """The values of the JSON object `block` by the table `keys`, with
    defaults filled in and the keys out of scope left out."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {unknown}")
    values = {}
    for name, key in keys.items():
        nested = isinstance(key.type, dict)
        label = f"{where}.{name}" if nested else f"{where} key {name!r}"
        if not key.applies(values):
            if name in block:
                raise ConfigError(f"{label} applies only when {key.when[0]}"
                                  f" is one of {list(key.when[1])}")
            continue
        value = block.get(name, key.default)
        if value is REQUIRED:
            raise ConfigError(f"{where} is missing key {name!r}")
        # a default, left out or given (such as "energy": null), is valid
        values[name] = key.parse(value, label) \
            if nested or value is not key.default else value
    return values
