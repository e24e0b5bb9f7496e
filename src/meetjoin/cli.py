"""Command-line front end.

One command is one pipeline: parse the input poset or integer set, bind a
function, run the requested analysis, and emit a deterministic report on
stdout or to a file.  Reports are JSON by default (rationals serialized as
"p/q" strings so sign information survives exactly) with a CSV option for
the tabular commands.  Exit codes: 0 on success, 2 when a precondition or
hypothesis fails, 1 on I/O and parse errors.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

import click

from .definiteness import _closure_rules, pd_oracle, structure_flags
from .errors import (DeskScaleError, DuplicateError, ExactArithmeticError,
                     MeetJoinError, NoJoinError, NoMeetError)
from .matrices import _check_direct_det, _closure_det, _float_pivots, det_general
from .mobius import (EXPONENT_DIGITS, PosetFunction, _coerce, _decimal_exponent,
                     _masses, _rational)
from .numtheory import (
    DEFAULT_CAP,
    MatrixModel,
    NamedFunction,
    _normalize_alpha,
    build_named_matrix,
    divisor_down_set,
    normalize_family,
)
from .poset import FinitePoset, Subset, _closure, build_poset
from .spectral import eigen_sym, join_bounds, meet_bounds

# Decimal exponent of the largest value ``x**|alpha|`` a float exponent may
# give: past 10**308 a float overflows.
FLOAT_EXPONENT = 308


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, resolved from flags."""

    command: str
    poset_path: str | None = None
    set_text: str | None = None
    family: str | None = None
    alpha: str = "1"
    values_path: str | None = None
    function_tag: str | None = None
    kind: str | None = None
    ambient: str = "canonical"
    fmt: str = "json"
    output_path: str | None = None
    tol: float = 1e-10
    slack: float = 1e-9

    def echo(self) -> dict:
        return {
            "command": self.command,
            "poset": self.poset_path,
            "set": self.set_text,
            "family": self.family,
            "alpha": self.alpha,
            "values": self.values_path,
            "function": self.function_tag,
            "kind": self.kind,
            "ambient": self.ambient,
            "format": self.fmt,
            "tol": self.tol if math.isfinite(self.tol) else str(self.tol),
            "slack": self.slack if math.isfinite(self.slack) else str(self.slack),
        }


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise DuplicateError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{err.lineno}: {err.msg}") from err


def parse_poset_file(path: str) -> tuple[FinitePoset, Subset]:
    """Read a poset file; returns the poset and the subset it designates.

    Three shapes are accepted: explicit ``n`` + ``relation`` (+ optional
    ``labels``), ``divisors_of: m``, or ``generated_by: [ints]`` for the
    divisors of a generating set.  An optional ``set`` field lists the
    member labels; without it the whole universe is the subset.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: poset file must be a JSON object")
    sources = [k for k in ("n", "divisors_of", "generated_by") if k in data]
    if len(sources) != 1:
        raise ValueError(
            f"{path}: need exactly one of n, divisors_of, generated_by"
        )
    if "divisors_of" in data:
        m = data["divisors_of"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"{path}: divisors_of must be a positive integer")
        lattice = divisor_down_set([m])
        poset = lattice.poset
        default_set = lattice.universe
    elif "generated_by" in data:
        gens = data["generated_by"]
        if not isinstance(gens, list) or not gens:
            raise ValueError(f"{path}: generated_by must be a nonempty list")
        lattice = divisor_down_set(gens)
        poset = lattice.poset
        default_set = tuple(sorted(set(gens)))
    else:
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"{path}: n must be a positive integer")
        if n > DEFAULT_CAP:
            raise DeskScaleError(
                f"{path}: poset of {n} elements is over the cap of {DEFAULT_CAP}"
            )
        relation = data.get("relation", [])
        if not isinstance(relation, list):
            raise ValueError(f"{path}: relation must be a list of pairs")
        # type(), not isinstance(): JSON true and false load as bools, ints too.
        for entry in relation:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(type(v) is int for v in entry)):
                raise ValueError(f"{path}: relation entries must be [i, j] pairs")
        labels = data.get("labels")
        if "labels" in data and not (
            isinstance(labels, list) and all(type(lb) in (int, str) for lb in labels)
        ):
            raise ValueError(f"{path}: labels must be a list of strings or integers")
        poset = build_poset(n, relation, labels=labels)
        default_set = poset.labels
    chosen = data.get("set", list(default_set))
    if not isinstance(chosen, list) or not chosen:
        raise ValueError(f"{path}: set must be a nonempty list of labels")
    return poset, Subset.of_labels(poset, chosen)


def parse_function_table(poset: FinitePoset, path: str) -> PosetFunction:
    """Read a label -> value table and bind it to the poset.

    Values may be integers, "p/q" strings, or finite floats; every element
    of the poset must be covered or MissingValueError names the gaps.
    """
    data = _load_json(path)
    if isinstance(data, dict) and isinstance(data.get("values"), dict):
        data = data["values"]
    if not isinstance(data, dict):
        raise ValueError(f"{path}: function table must be a JSON object")
    return PosetFunction.from_table(poset, data)


def _parse_number(text: str):
    s = text.strip()
    try:
        return int(s)
    except ValueError:
        pass
    if "/" in s:
        return _coerce(s)
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    mantissa = s.lower().partition("e")[0]
    if value == 0 and any(digit in mantissa for digit in "123456789"):
        raise ValueError(f"{text!r} is not zero, but below the float range")
    return value


def _parse_int_set(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("the set shorthand is empty")
    return [int(piece) for piece in items]


# Report values that encode as themselves, tested by exact type: a float
# fails ``isinstance(value, Fraction)`` only through the slow abstract-class
# check.
_PLAIN = frozenset({float, int, str, bool, type(None)})


def _encode(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:  # over sys.get_int_max_str_digits()
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            raise DeskScaleError(
                f"a rational of about {int(bits * math.log10(2)) + 1} digits is "
                f"over the limit of {sys.get_int_max_str_digits()} digits for "
                "integer string conversion"
            ) from None
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def _label_logs(labels):
    """``log10 |p| + log10 q`` of each nonzero label that reads as a
    rational ``p/q`` in lowest terms: an int as it is, text as
    :func:`mobius._rational` reads it for the function.  Text that is no
    number is left to the function, which refuses it.  Text whose decimal
    exponent is past ``EXPONENT_DIGITS`` counts as that many digits, so no
    huge power of 10 is built just to be refused."""
    for x in labels:
        if isinstance(x, str):
            try:
                x = _rational(x)
            except DeskScaleError:
                yield float(abs(_decimal_exponent(x)))
                continue
            except ValueError:
                continue
        if x:
            yield math.log10(abs(x.numerator)) + math.log10(x.denominator)


def _check_exponent(alpha, labels) -> None:
    """Refuse an exponent that makes the values outgrow desk scale, before
    any value is built.  For an exact exponent beyond 1,
    ``|alpha| * sum(log10 |p| + log10 q)`` over the nonzero labels ``p/q``
    is the number of digits of the product of their values ``x**|alpha|``,
    numerators and denominators alike.  Over the members of a set, that
    product bounds ``|det|`` of a positive definite power matrix
    (Hadamard's inequality) and no single value has more digits.  For a
    float exponent, ``|alpha|`` times the largest such sum bounds the
    decimal exponent of every value, which must stay in float range."""
    a = _normalize_alpha(alpha)
    if isinstance(a, float):
        largest = abs(a) * max(_label_logs(labels), default=0.0)
        if largest > FLOAT_EXPONENT:
            raise DeskScaleError(
                f"exponent {a} gives values near 1e{largest:.0f}, past the "
                f"float range of 1e{FLOAT_EXPONENT}"
            )
    elif abs(a) > 1:
        digits = abs(a) * sum(_label_logs(labels))
        if digits > EXPONENT_DIGITS:
            raise DeskScaleError(
                f"exponent {a} gives values with about {digits:.0f} digits on "
                f"the diagonal, over the cap of {EXPONENT_DIGITS}"
            )


def _resolve(config: RunConfig) -> MatrixModel:
    if (config.poset_path is None) == (config.set_text is None):
        raise ValueError("exactly one input source: --poset or --set")
    if not (0 < config.tol < math.inf and 0 < config.slack < math.inf):
        raise ValueError("tolerances must be positive and finite")

    if config.set_text is not None:
        family = normalize_family(config.family or "power_gcd")
        members = _parse_int_set(config.set_text)
        alpha = _parse_number(config.alpha)
        _check_exponent(alpha, members)
        model = build_named_matrix(
            family, members, alpha=alpha, ambient=config.ambient
        )
        kind = config.kind or model.kind
        if kind != model.kind:
            raise ValueError(
                f"family {family} builds a {model.kind} matrix, not {kind}"
            )
        return model

    if config.family is not None:
        raise ValueError("--family needs --set, not --poset")
    poset, subset = parse_poset_file(config.poset_path)
    kind = config.kind or "meet"
    function = None
    if config.values_path is not None and config.function_tag is not None:
        raise ValueError("give --values or --function, not both")
    if config.values_path is not None:
        function = parse_function_table(poset, config.values_path)
    elif config.function_tag is not None:
        tag = config.function_tag.strip().lower().replace("-", "_")
        if tag == "identity":
            named = NamedFunction("identity")
        else:
            named = NamedFunction(tag, _parse_number(config.alpha))
            _check_exponent(named.alpha, poset.labels)
        function = named.bind(poset)
    return MatrixModel(kind, poset, subset, function)


def _flag_payload(subset: Subset) -> dict:
    flags = structure_flags(subset)
    return {name: flags[name] for name in sorted(flags)}


def _closure_vector(model: MatrixModel, certificate: dict) -> dict | None:
    """The masses of f over the closure of the set, read off the
    certificate when it holds them over exactly that closure.  None when
    there is no closure or a value on it is a float; floats elsewhere on
    the poset do not matter."""
    f = model.function
    try:
        closed = _closure(model.subset, model.kind).subset
        labels = closed.labels
        if certificate.get("support") == labels and "masses" in certificate:
            values = certificate["masses"]
        else:
            values = _masses(closed, f, model.kind).values
    except (NoMeetError, NoJoinError, ExactArithmeticError):
        return None
    return {str(lb): _encode(v) for lb, v in zip(labels, values)}


def _det_fields(report, matrix, s: Subset | None = None) -> dict:
    """The determinant of ``matrix``, the meet (join) matrix of ``s``:
    :func:`_mass_det` where the masses give it, else :func:`_matrix_det`."""
    return _mass_det(report, s) or _matrix_det(report, matrix)


def _mass_det(report, s: Subset | None) -> dict | None:
    """The determinant where the masses of f over the closure of ``s``
    decided, through :func:`meetjoin.matrices._closure_det`: on a closed set
    (T3.1/T3.2) their product, and where C3.4/C3.6 found the set positive
    definite, from exact masses as the masses refuse floats, that product
    times the det of the complementary minor.  Else, or where the gate
    there refuses the route, None."""
    certificate = report.certificate
    if s is not None and (report.method in ("T3.1", "T3.2") or (
            report.method in ("C3.4", "C3.6") and report.is_positive_definite)):
        det = _closure_det(_closure(s, certificate["kind"]), certificate["masses"])
        if det is not None:
            return {"det": det}
    return None


def _matrix_det(report, matrix) -> dict:
    """The determinant read off ``matrix``.  An oracle run that reached the
    last column holds it: on exact values its last minor, on floats the
    product of its LDL^T pivots, positive where it found the matrix positive
    definite.  Else one elimination with partial pivoting, as in
    :func:`det_general`, an exact one within the work budget of
    :func:`meetjoin.matrices._check_direct_det`.  Where a float product
    leaves the float range (a zero pivot aside), ``det`` is null and
    ``det_log10``, the sum of log10 |pivot|, and ``det_sign`` carry it."""
    steps = report.certificate.get("minors" if matrix.is_exact else "pivots", ())
    reached = report.method == "oracle" and len(steps) == matrix.n
    if matrix.is_exact:
        if reached:
            return {"det": steps[-1]}
        _check_direct_det(matrix)
        return {"det": det_general(matrix)}
    pivots = steps if reached else tuple(_float_pivots(matrix, swap=True))
    det = math.prod(pivots)
    if math.isfinite(det) and (det != 0 or 0 in pivots):
        return {"det": det}
    return {
        "det": None,
        "det_log10": math.fsum(math.log10(abs(p)) for p in pivots),
        "det_sign": -1 if sum(p < 0 for p in pivots) % 2 else 1,
    }


def _execute(config: RunConfig, model: MatrixModel) -> tuple[int, dict]:
    if model.function is None and config.command in ("build", "check-pd", "bounds"):
        raise ValueError("no function source: give --values or --function")

    if config.command == "build":
        matrix = model.matrix
        return 0, {
            "labels": _encode(list(model.subset.labels)),
            "kind": model.kind,
            "exact": matrix.is_exact,
            "matrix": matrix.entries,
        }

    if config.command == "classify":
        return 0, {
            "labels": _encode(list(model.subset.labels)),
            "flags": _flag_payload(model.subset),
        }

    if config.command == "closure":
        result = _closure(model.subset, model.kind)
        original = set(model.subset.members)
        added = [m for m in result.subset.members if m not in original]
        return 0, {
            "kind": model.kind,
            "closed": not added,
            "members": _encode(list(result.subset.labels)),
            "added": _encode([model.poset.labels[m] for m in added]),
        }

    if config.command == "check-pd":
        # The matrix is assembled only where it is read: by the oracle, and
        # by a det that the masses do not give.
        s, f = model.subset, model.function
        report = _closure_rules(s, f, model.kind) or pd_oracle(model.matrix)
        payload = {
            "verdict": report.verdict,
            "method": report.method,
            "certificate": _encode(report.certificate),
            "flags": _flag_payload(s),
        }
        vector = _closure_vector(model, report.certificate)
        if vector is not None:
            payload["psi" if model.kind == "meet" else "phi"] = vector
        det = _mass_det(report, s) or _matrix_det(report, model.matrix)
        payload.update(_encode(det))
        return 0, payload

    if config.command == "bounds":
        side_bounds = meet_bounds if model.kind == "meet" else join_bounds
        bounds = side_bounds(model.subset, model.function)
        spectrum = eigen_sym(model.matrix, tol=config.tol)
        rows = bounds.table(spectrum, slack=config.slack)
        payload = {
            "kind": model.kind,
            "hypotheses": bounds.hypotheses_ok,
            "verified": bounds.verified,
            "eigenvalues": list(spectrum.eigenvalues),
            "residual": spectrum.residual,
            "bounds": rows,
            "lower": {
                "bound": bounds.lower_max,
                "lambda_max": spectrum.eigenvalues[-1],
                "ok": bounds.lower_ok(spectrum, slack=config.slack),
            },
            "permutation": list(bounds.reindex_permutation),
        }
        return (0 if bounds.verified else 2), payload

    raise ValueError(f"unknown command {config.command!r}")


def _csv_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _render_csv(config: RunConfig, payload: dict) -> str:
    def cell(v):
        return _csv_text(_encode(v))

    if config.command == "bounds":
        lines = ["k,lambda,bound,ok"]
        for row in payload["bounds"]:
            lines.append(
                f"{row['k']},{cell(row['lambda'])},{cell(row['bound'])},{cell(row['ok'])}"
            )
        return "\n".join(lines) + "\n"
    if config.command == "build":
        rows = _cell_texts(payload["matrix"], lambda values: map(_csv_text, values))
        return "\n".join(map(",".join, rows)) + "\n"
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                lines.append(f"{key}.{sub},{cell(v)}")
        elif isinstance(value, list):
            lines.append(f"{key}," + ";".join(cell(v) for v in value))
        else:
            lines.append(f"{key},{cell(value)}")
    return "\n".join(lines) + "\n"


def _cell_texts(rows, write):
    """The texts of the cells of ``rows``, one iterator per row, each
    distinct entry object written once: a meet or join matrix holds at most
    one per universe element.  Those objects, keyed by ``id``, pass through
    :func:`_encode`, so a Fraction is ``"p/q"`` text, and ``write`` maps
    their list to their texts."""
    cells = list(chain.from_iterable(rows))
    ids = list(map(id, cells))  # ``cells`` keeps each id's object alive
    distinct = dict(zip(ids, cells))
    texts = write([_encode(v) for v in distinct.values()])
    cell_texts = map(dict(zip(distinct, texts)).__getitem__, ids)
    return (islice(cell_texts, len(row)) for row in rows)


# After each comma, a newline and the indent of a matrix entry: the layout
# of ``indent=2``.  json.dumps runs the C encoder when no indent is given,
# and it takes any separators.  Escaped JSON text holds no raw newline, so
# splitting on this separator gives back each entry's text.
_ENTRY = ",\n" + " " * 6


def _json(value) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte.

    Only a ``build`` reply is made another way: a dict whose last item is
    its ``"matrix"``, a square of scalar entries.  Each distinct entry is
    encoded once, through :func:`_cell_texts`, and the rows are laid out
    around those texts.  When the C encoder refuses an entry, json's own
    encoder raises in its place, with a message that names the value."""
    if not (isinstance(value, dict) and next(reversed(value), None) == "matrix"):
        return json.dumps(value, indent=2, allow_nan=False)
    try:
        rows = _cell_texts(value["matrix"], lambda values: json.dumps(
            values, separators=(_ENTRY, ": "), allow_nan=False)[1:-1].split(_ENTRY))
    except ValueError:
        value = {**value, "matrix": _encode(value["matrix"])}
        return json.dumps(value, indent=2, allow_nan=False)
    matrix = ",\n    ".join(f"[\n      {_ENTRY.join(row)}\n    ]" for row in rows)
    head = json.dumps({**value, "matrix": []}, indent=2, allow_nan=False)
    return head[:-4] + (f"[\n    {matrix}\n  ]" if matrix else "[]") + "\n}"


def _render(config: RunConfig, payload: dict) -> str:
    if config.fmt == "csv":
        return _render_csv(config, payload)
    body = {"config": config.echo()}
    body.update(payload)
    return _json(body) + "\n"


def _render_error(config: RunConfig, err: Exception) -> str:
    body = {
        "config": config.echo(),
        "error": {"type": type(err).__name__, "message": str(err)},
    }
    return _json(body) + "\n"


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one pipeline; returns (exit code, rendered report)."""
    try:
        model = _resolve(config)
        code, payload = _execute(config, model)
        return code, _render(config, payload)
    except MeetJoinError as err:
        return 2, _render_error(config, err)
    except OverflowError as err:
        scale = DeskScaleError(f"a value is out of float range: {err}")
        return 2, _render_error(config, scale)
    except (OSError, ValueError, TypeError, IndexError, KeyError) as err:
        return 1, _render_error(config, err)


def _emit(config: RunConfig) -> None:
    code, text = run(config)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            code = 1
            sys.stdout.write(_render_error(config, err))
    if code != 0:
        raise SystemExit(code)


def _common(fn):
    options = [
        click.option("--poset", "poset_path", default=None,
                     help="poset file (JSON)"),
        click.option("--set", "set_text", default=None,
                     help="comma-separated positive integers"),
        click.option("--family", default=None,
                     help="power-gcd | reciprocal-power-lcm | gcud-power | min | max"),
        click.option("--alpha", default="1", help="exponent for power families"),
        click.option("--values", "values_path", default=None,
                     help="function table file (JSON)"),
        click.option("--function", "function_tag", default=None,
                     help="identity | power | reciprocal-power"),
        click.option("--kind", type=click.Choice(["meet", "join"]), default=None),
        click.option("--ambient", type=click.Choice(["closure", "canonical"]),
                     default="canonical", help="universe for family inputs"),
        click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                     default="json"),
        click.option("--output", "output_path", default=None,
                     help="write the report here instead of stdout"),
        click.option("--tol", type=float, default=1e-10,
                     help="absolute off-diagonal deflation bound of the eigensolver"),
        click.option("--slack", type=float, default=1e-9,
                     help="bound satisfaction slack"),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
def main() -> None:
    """Meet and join matrices: construction, definiteness, bounds."""


def _register(name: str):
    @main.command(name)
    @_common
    def _cmd(**kw):
        _emit(RunConfig(command=name, **kw))

    _cmd.__name__ = name.replace("-", "_")
    return _cmd


build = _register("build")
classify = _register("classify")
check_pd = _register("check-pd")
bounds = _register("bounds")
closure = _register("closure")


if __name__ == "__main__":
    main()
