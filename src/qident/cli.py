"""Command-line interface: `qident verify ...`, `qident coeffs`, `qident list`."""

from __future__ import annotations

import csv
import io
import json
from itertools import islice

import click

from . import appell, overpartitions, partitions, verify

K = click.IntRange(min=2)
NONNEG = click.IntRange(min=0)


def _check_i(k, i):
    """The library's i rule, as a usage error on --i."""
    try:
        partitions.check_params(k, i)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--i'") from exc


# items per write of a witness list or of text lines: what is held at once
CHUNK = 4096


def _chunks(items):
    """items as lists of CHUNK, drawn as each list is asked for."""
    it = iter(items)
    while chunk := list(islice(it, CHUNK)):
        yield chunk


def _emit(ctx, payload, text_lines):
    """The one output path: payload as JSON or CSV rows, or text_lines one
    per line, as --format asks (main admits csv for `coeffs` only).  Text
    lines are written CHUNK at a time.  A witness list comes as an iterator
    of strings rather than a list, and is drawn and written CHUNK strings at
    a time, each chunk quoted by one join: witness strings hold only
    digits, '+' and '~', which JSON writes as they are, so the bytes are
    those of json.dumps(list(payload), indent=2).  Reports and coefficient
    rows, a dict or a list, keep json.dumps."""
    fmt = ctx.obj["format"]
    if fmt == "json" and isinstance(payload, (dict, list)):
        click.echo(json.dumps(payload, indent=2))
    elif fmt == "json":
        opened = False
        for chunk in _chunks(payload):
            head = ',\n  "' if opened else '[\n  "'
            click.echo(head + '",\n  "'.join(chunk) + '"', nl=False)
            opened = True
        click.echo("\n]" if opened else "[]")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(payload[0].keys()))
        writer.writeheader()
        writer.writerows(payload)
        click.echo(buf.getvalue(), nl=False)
    else:
        for chunk in _chunks(text_lines):
            click.echo("\n".join(chunk) + "\n", nl=False)


def _with_total(items):
    """A witness list's text lines: each item, then `total: N`."""
    count = 0
    for count, item in enumerate(items, 1):
        yield item
    yield f"total: {count}"


def _emit_reports(ctx, reports):
    payload = [r.to_dict() for r in reports]
    _emit(ctx, payload[0] if len(payload) == 1 else payload, (r.render_text() for r in reports))
    if not all(r.passed for r in reports):
        ctx.exit(1)


@click.group()
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text",
              help="Output format (csv applies to coeffs tables only).")
@click.pass_context
def main(ctx, fmt):
    """Mechanical verification of a family of partition and overpartition identities."""
    if fmt == "csv" and ctx.invoked_subcommand != "coeffs":
        raise click.UsageError("csv format applies to `coeffs` only")
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt


@main.group("verify")
@click.pass_context
def verify_group(ctx):
    """Run an identity verifier."""


@verify_group.command("overpartition")
@click.option("--k", type=K, required=True)
@click.option("--n-max", type=NONNEG, required=True)
@click.option("--m-max", type=NONNEG, default=None)
@click.pass_context
def verify_overpartition_cmd(ctx, k, n_max, m_max):
    _emit_reports(ctx, [verify.verify_overpartition(k, n_max, m_max)])


@verify_group.command("corollary")
@click.option("--k", type=K, required=True)
@click.option("--i", type=int, required=True)
@click.option("--n-max", type=NONNEG, default=200)
@click.option("--enum-limit", type=NONNEG, default=25)
@click.pass_context
def verify_corollary_cmd(ctx, k, i, n_max, enum_limit):
    _check_i(k, i)
    _emit_reports(ctx, [verify.verify_corollary(k, i, n_max, enum_limit)])


@verify_group.command("andrews")
@click.option("--k", type=K, required=True)
@click.option("--n-max", type=NONNEG, default=200)
@click.option("--enum-limit", type=NONNEG, default=25)
@click.pass_context
def verify_andrews_cmd(ctx, k, n_max, enum_limit):
    _emit_reports(ctx, [verify.verify_andrews(k, n_max, enum_limit)])


@verify_group.command("dual")
@click.option("--k", type=K, required=True)
@click.option("--n-max", type=NONNEG, default=200)
@click.option("--enum-limit", type=NONNEG, default=25)
@click.pass_context
def verify_dual_cmd(ctx, k, n_max, enum_limit):
    _emit_reports(ctx, [verify.verify_dual(k, n_max, enum_limit)])


@verify_group.command("schur")
@click.option("--n-max", type=NONNEG, default=40)
@click.pass_context
def verify_schur_cmd(ctx, n_max):
    _emit_reports(ctx, [verify.verify_schur(n_max)])


@verify_group.command("machinery")
@click.option("--k", type=K, required=True)
@click.option("--q-order", type=NONNEG, default=60)
@click.option("--j-max", type=NONNEG, default=None, help="Default: q-order + k.")
@click.pass_context
def verify_machinery_cmd(ctx, k, q_order, j_max):
    _emit_reports(ctx, [verify.verify_machinery(k, q_order, j_max)])


@verify_group.command("all")
@click.option("--k-max", type=K, default=5)
@click.pass_context
def verify_all_cmd(ctx, k_max):
    _emit_reports(ctx, verify.verify_all(k_max))


@main.command("golden-n10")
@click.pass_context
def golden_cmd(ctx):
    """Reproduce the worked n = 10 example."""
    _emit_reports(ctx, [verify.golden_example_n10()])


@main.command("coeffs")
@click.option("--side", type=click.Choice(["product", "sum", "overpartition-product"]),
              required=True)
@click.option("--k", type=K, required=True)
@click.option("--i", type=int, default=0)
@click.option("--n-max", type=NONNEG, default=30)
@click.pass_context
def coeffs_cmd(ctx, side, k, i, n_max):
    """Print a coefficient table for one side of an identity."""
    if side in ("product", "sum"):  # the D_k product reads no i
        _check_i(k, i)
    if side == "overpartition-product":
        series = appell.theorem_product(k, n_max)
        rows = [
            {"m": m, "n": n, "coefficient": series.coefficient(m, n)}
            for m in range(series.a_order + 1)
            for n in range(n_max + 1)
            if series.coefficient(m, n)
        ]
    elif side == "product":
        series = appell.congruence_product_series(k, i, n_max)
        rows = [{"n": n, "coefficient": series.coefficient(n)} for n in range(n_max + 1)]
    else:  # sum side: the D_k moves, specialized to C on one sweep row
        table = partitions.count_C_table(n_max, k, i)
        rows = [{"n": n, "coefficient": c} for n, c in enumerate(table)]
    text = (" ".join(f"{k_}={v}" for k_, v in row.items()) for row in rows)
    _emit(ctx, rows, text)


@main.command("list")
@click.option("--side", type=click.Choice(["B", "C", "D"]), required=True)
@click.option("--k", type=K, required=True)
@click.option("--i", type=int, default=0)
@click.option("--n", type=NONNEG, required=True)
@click.pass_context
def list_cmd(ctx, side, k, i, n):
    """Print the witness objects counted on one side at a single n.

    \f
    Each side's strings are built along the walk that finds its objects
    and streamed; no object is built.  B and C's walk (b_strings,
    c_strings) carries one string per node, D's (d_strings) one per
    admissible overline mask."""
    if side in ("B", "C"):  # D_k reads no i
        _check_i(k, i)
    if n > verify.ENUM_HARD_LIMIT:
        raise click.UsageError(verify._REFUSED)
    if side == "B":
        items = partitions.b_strings(n, k, i)
    elif side == "C":
        items = partitions.c_strings(n, k, i)
    else:
        items = overpartitions.d_strings(n, k)
    # one iterator behind both: _emit draws the payload or the text lines
    _emit(ctx, items, _with_total(items))


if __name__ == "__main__":
    main()
