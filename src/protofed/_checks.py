"""The range rule every float and count setting obeys."""

import math
import operator

# Each float rule's text, as error messages print it, and its test; NaN fails every test.
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}
# Each count rule's least value: a count is at least 1, a seed or class id at least 0.
_LEAST = {"integer >= 1": 1, "integer >= 0": 0}


def check_range(name: str, value: float, rule: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and obeys ``rule``.

    +inf passes a float rule with no upper bound, so it is then rejected as
    not finite. An integer rule takes what ``operator.index`` takes (Python
    and numpy integers) and rejects anything else, NaN and infinity included.
    """
    if rule in _LEAST:
        try:
            below = operator.index(value) < _LEAST[rule]
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value}") from None
        if below:
            raise ValueError(f"{name} must be >= {_LEAST[rule]}, got {value}")
        return
    if not _RULES[rule](value):
        raise ValueError(f"{name} must be {rule}, got {value}")
    if math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")
