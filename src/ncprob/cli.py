"""Command-line front end.

Exit codes: 0 on success or a verified identity, 1 when a verification
fails (the counterexample is printed as JSON), 2 on usage errors.
All output is deterministic for fixed arguments and seed.

A fresh process loads `nc` alone; each command imports the other layers it
runs when it runs, and the `--theorem` and `--flavor` choices are read from
`selftest` and `typeb` when needed.  The enumerations write canonical block
rows, with no partition objects, a few thousand rows to a write; a reader
that closes the pipe early ends the command with exit code 0.
"""

import os
import sys
from functools import lru_cache
from importlib import import_module
from itertools import islice

import click

from .errors import InvalidFamily, NcprobError
from .nc import NcPartition, _block_text, _nc_rows, kreweras, moebius_to_one


def _dump(obj) -> None:
    import json

    click.echo(json.dumps(obj, indent=2, sort_keys=True))


def _json_list(items: list[str], pad: str) -> str:
    """A non-empty JSON array of encoded items laid out as json.dumps(...,
    indent=2) lays it out when its closing bracket follows pad."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]"


@lru_cache(maxsize=None)
def _json_block(block: tuple[int, ...], pad: str) -> str:
    return _json_list(list(map(str, block)), pad)


def _json_rows(rows, pad: str):
    """Each row of blocks as json.dumps(..., indent=2) writes it at pad, but
    with each distinct block encoded once and no pure-Python encoder."""
    inner = pad + "  "
    return (_json_list([_json_block(b, inner) for b in row], pad) for row in rows)


def _text_rows(rows):
    return ("".join(map(_block_text, row)) for row in rows)


def _write(lines, as_json: bool) -> None:
    """Write the lines one a line, or as json.dumps(..., indent=2) lays out
    their array, a few thousand to a write: no more is held as text."""
    head, sep, tail = ("[\n  ", ",\n  ", "\n]\n") if as_json else ("", "\n", "\n")
    lines = iter(lines)
    while chunk := list(islice(lines, 4096)):
        click.echo(head + sep.join(chunk), nl=False)
        head = sep
    click.echo(tail, nl=False)


def _load_json(path: str):
    import json

    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also undecodable bytes
            raise InvalidFamily(f"{path} is not valid JSON: {exc}") from None


def _load_family(path: str):
    from .families import MultilinearFamily

    return MultilinearFamily.from_json_dict(_load_json(path))


def _want(inputs, count: int, what: str):
    if len(inputs) != count:
        raise click.UsageError(f"{what} needs exactly {count} --input file(s)")


class _LayerChoice(click.Choice):
    """Choices read from a layer each time they are needed, so that building
    the command line loads no layer."""

    def __init__(self, layer: str, read) -> None:
        self.case_sensitive = True
        self._layer, self._read = layer, read

    @property
    def choices(self):
        return tuple(self._read(import_module(f".{self._layer}", __package__)))


class _Command(click.Command):
    """Library errors are usage errors, exit 2; a closed output pipe exits 0."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NcprobError as exc:
            raise click.UsageError(str(exc), ctx) from None
        except BrokenPipeError:  # the rest goes to devnull, also at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(0)


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too


@click.group(cls=_Group)
def main():
    """Exact combinatorics of non-crossing partitions and cumulants."""


@main.group("nc")
def nc_group():
    """Non-crossing partition lattice operations."""


@nc_group.command("enumerate")
@click.option("--n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON array.")
def nc_enumerate(n, as_json):
    """List NC(n) in canonical order, one partition per line."""
    rows = _nc_rows(n)
    _write(_json_rows(rows, "\n  ") if as_json else _text_rows(rows), as_json)


def _on_partition(name: str, op, doc: str) -> None:
    """Register `nc <name>`, which prints op of the partition given as text."""

    @nc_group.command(name, help=doc)
    @click.option("--partition", "text", required=True, help='Text form, e.g. "{1,3}{2}".')
    def command(text):
        click.echo(str(op(NcPartition.from_text(text))))


_on_partition("kreweras", kreweras, "Print the Kreweras complement of a partition.")
_on_partition("moebius", moebius_to_one,
              "Print the Moebius value of the partition against the one-block one.")


@main.group("typeb")
def typeb_group():
    """Symmetric (signed) non-crossing partition operations."""


@typeb_group.command("enumerate")
@click.option("--n", "n", type=int, required=True, help="Ground-set half-size.")
@click.option(
    "--flavor",
    type=_LayerChoice("typeb", lambda typeb: (f.value for f in typeb.Flavor)),
    default="B",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON array.")
def typeb_enumerate(n, flavor, as_json):
    """List the symmetric lattice for the chosen circular order."""
    from .typeb import Flavor, _signed_rows

    rows = _signed_rows(n, Flavor(flavor))
    if not as_json:
        return _write(_text_rows(rows), False)
    # each row is the object {"blocks": ..., "flavor": ..., "n": ...}
    pad = "\n    "
    rest = f',{pad}"flavor": "{flavor}",{pad}"n": {n}\n  }}'
    _write(("{" + pad + '"blocks": ' + r + rest for r in _json_rows(rows, pad)), True)


@main.command("transform")
@click.option(
    "--brand",
    type=click.Choice(["free", "boolean", "cfree", "cc", "infinitesimal"]),
    required=True,
)
@click.option(
    "--direction",
    type=click.Choice(["to-cumulants", "to-moments"]),
    required=True,
)
@click.option(
    "--input",
    "inputs",
    multiple=True,
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Family JSON file(s); two-family brands take the base family first.",
)
def transform(brand, direction, inputs):
    """Convert between moments and cumulants; result JSON on stdout.

    One input for free/boolean.  cfree and cc take (base, second family);
    infinitesimal to-cumulants takes (base moments, derivative moments) and
    to-moments takes (free cumulants of the base, derivative cumulants).
    """
    from . import cumulants as cu

    table = {
        ("free", "to-cumulants"): cu.free_cumulants,
        ("free", "to-moments"): cu.moments_from_free,
        ("boolean", "to-cumulants"): cu.boolean_cumulants,
        ("boolean", "to-moments"): cu.moments_from_boolean,
        ("cfree", "to-cumulants"): cu.cfree_cumulants,
        ("cfree", "to-moments"): cu.moments_from_cfree,
        ("cc", "to-cumulants"): cu.cc_cumulants,
        ("cc", "to-moments"): cu.moments_from_cc,
        ("infinitesimal", "to-cumulants"): cu.infinitesimal_cumulants,
        ("infinitesimal", "to-moments"): cu.infinitesimal_moments,
    }
    _want(inputs, 1 if brand in ("free", "boolean") else 2, brand)
    out = table[(brand, direction)](*(_load_family(p) for p in inputs))
    _dump(out.to_json_dict())


@main.command("psi")
@click.option("--k", "k", type=int, default=None, help="Expected generator count.")
@click.option(
    "--input",
    "input_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
)
@click.option(
    "--delta",
    "delta_path",
    default=None,
    type=click.Path(exists=True, dir_okay=False),
    help="Optional tensor JSON; defaults to the diagonal comultiplication.",
)
def psi(k, input_path, delta_path):
    """Map a distribution to its derivative-style functional."""
    from .deltastar import psi_delta
    from .families import DeltaTensor, diagonal_delta

    nu = _load_family(input_path)
    if k is not None and nu.k != k:
        raise click.UsageError(f"family has k={nu.k}, expected {k}")
    delta = (diagonal_delta(nu.k) if delta_path is None
             else DeltaTensor.from_json_dict(_load_json(delta_path)))
    _dump(psi_delta(delta, nu).to_json_dict())


def _pairwise(name: str, doc: str) -> None:
    """Register `<name> --kind ...`: the free op on two families, or the
    c-free or infinitesimal op on four (two pairs), which returns a pair."""

    @main.command(name, help=doc)
    @click.option("--kind", type=click.Choice(["free", "cfree", "infinitesimal"]), required=True)
    @click.option("--input", "inputs", multiple=True, required=True,
                  type=click.Path(exists=True, dir_okay=False),
                  help="Two files for free, four (mu1 nu1 mu2 nu2) otherwise.")
    def command(kind, inputs):
        from . import products as pr

        op, keys = {
            ("free", "product"): (pr.free_product, ()),
            ("free", "convolve"): (pr.boxplus, ()),
            ("cfree", "product"): (pr.cfree_product, ("mu", "nu")),
            ("cfree", "convolve"): (pr.boxplus_c, ("mu", "nu")),
            ("infinitesimal", "product"): (pr.infinitesimal_product, ("mu", "mu_prime")),
            ("infinitesimal", "convolve"): (pr.boxplus_b, ("mu", "mu_prime")),
        }[(kind, name)]
        _want(inputs, 4 if keys else 2, f"{name} --kind {kind}")
        out = op(*map(_load_family, inputs))
        _dump({key: f.to_json_dict() for key, f in zip(keys, out)} if keys
              else out.to_json_dict())


_pairwise("product", "Free product of distributions or pairs; result JSON on stdout.")
_pairwise("convolve", "Additive convolution of distributions or pairs.")


@main.command("verify")
@click.option(
    "--theorem",
    type=_LayerChoice("selftest", lambda selftest: selftest.TARGETS),
    required=True,
    help="Which identity to check on seeded random inputs.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", "k", type=int, default=2, show_default=True)
@click.option("--l", "l", type=int, default=1, show_default=True,
              help="Second generator count (product identity only).")
@click.option("--N", "-N", "--n", "big_n", type=int, default=4, show_default=True,
              help="Comparison degree.")
def verify(theorem, seed, k, l, big_n):
    """Check one identity; exit 0 when it holds, 1 with a counterexample."""
    from .selftest import verify_report

    report = verify_report(theorem, seed, k, big_n, l=l)
    _dump(report)
    sys.exit(0 if report["ok"] else 1)


@main.command("selftest")
@click.option("--seed", type=int, default=0, show_default=True)
def selftest(seed):
    """Run the whole acceptance suite, one pass/fail line per criterion."""
    from .selftest import run

    ok = run(seed)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
