"""Error types shared across the package, and the refusal rule of a stack.

DomainError marks inputs outside an operation's contract (bad parameters,
out-of-domain evaluation points, unmet preconditions); ConvergenceError marks
iterative procedures that hit their caps. The CLI maps DomainError to exit
code 3 and verification failures to exit code 4. Every stack refuses as its
first failing item would alone: read_in_order. An order, index or count is
read by integer, or nonnegative_int where it cannot be negative.
"""


class DomainError(ValueError):
    """Input violates a documented precondition or domain restriction."""


class ConvergenceError(RuntimeError):
    """An iteration or series hit its cap without meeting its tolerance."""


def integer(value, name: str) -> int:
    """int(value), refusing one int() cannot take, such as nan or inf, with
    a DomainError ("{name} must be an integer, got nan")."""
    try:
        return int(value)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{name} must be an integer, got {value!r}") from exc


def nonnegative_int(value, name: str) -> int:
    """integer(value, name), refusing a negative value ("{name} must be
    nonnegative") with a DomainError."""
    n = integer(value, name)
    if n < 0:
        raise DomainError(f"{name} must be nonnegative")
    return n


def read_in_order(items, read, then):
    """then(values), values being read(item) for the items in order up to
    the first DomainError (an item that cannot be drawn included). That
    error is raised once then returns, so the later stages' failures on the
    items read before it come first."""
    values, failure = [], None
    try:
        for item in items:
            values.append(read(item))
    except DomainError as exc:
        failure = exc
    result = then(values)
    if failure is not None:
        raise failure
    return result
