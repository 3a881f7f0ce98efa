"""Command line interface: ingest, compute, generate, analyze, export."""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from .diagrams import DT_CONVENTIONS
from .errors import BadEnvironment, KnotfoldError, Unreadable
from .pipeline import (
    FORMATS,
    AnalysisConfig,
    InvariantCache,
    compute_batch,
    generate_family,
    ingest,
    make_report_dir,
    run_analysis,
)

_CLASS_ALIASES = {"all": "all", "alt": "alternating",
                  "nonalt": "nonalternating"}


def _share(ctx, param, value):
    if not 0 < value <= 1:  # false for NaN too
        raise click.BadParameter(f"{value} is not in the range 0<x<=1")
    return value


def _report_errors(command):
    """Report a KnotfoldError as ``error: ...`` with exit status 1, and a
    bad KNOTFOLD_WORKERS as a usage error."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except BadEnvironment as exc:
            raise click.UsageError(str(exc)) from None
        except KnotfoldError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return run


@click.group()
def main():
    """Jones polynomial point cloud toolkit."""


@main.command("ingest")
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default="dt", show_default=True)
@_report_errors
def ingest_cmd(paths, fmt):
    """Parse dataset files and report record and reject counts."""
    ds = ingest(paths, fmt)
    click.echo(f"digest {ds.digest}")
    click.echo(f"records {len(ds.records)} rejects {len(ds.rejects)}")
    _echo_rejects(ds)


def _echo_rejects(ds):
    for path, lineno, reason in ds.rejects:
        click.echo(f"reject {path}:{lineno} {reason}", err=True)


def _computed(paths, fmt, store, workers, convention):
    """Ingest the dataset files and compute their records into the store.
    Each rejected line and each failed record gets a line on stderr.
    Returns (dataset, records, failures)."""
    ds = ingest(paths, fmt)
    _echo_rejects(ds)
    records, failures = compute_batch(ds, store, workers, convention,
                                      max_failure_fraction=1.0)
    for rid, reason in failures:
        click.echo(f"failure {rid}: {reason}", err=True)
    return ds, records, failures


@main.command("compute")
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default="dt", show_default=True)
@click.option("--dt-sign-convention", type=click.Choice(DT_CONVENTIONS),
              default="a", show_default=True)
@click.option("--cache", type=click.Path(), required=True)
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="defaults to core count or KNOTFOLD_WORKERS")
@_report_errors
def compute_cmd(paths, fmt, dt_sign_convention, cache, workers):
    """Compute canonicalized Jones invariants into the cache."""
    _, records, failures = _computed(paths, fmt, InvariantCache(cache),
                                     workers, dt_sign_convention)
    click.echo(f"computed {len(records)} records, {len(failures)} failures")
    if failures:
        sys.exit(2)


@main.command("generate")
@click.option("--family", type=click.Choice(["torus", "double-twist"]),
              required=True)
@click.option("--max-crossings", type=click.IntRange(min=3), required=True)
@click.option("--cache", type=click.Path(), required=True)
@_report_errors
def generate_cmd(family, max_crossings, cache):
    """Generate a knot family and cache its Jones polynomials."""
    store = InvariantCache(cache)
    digest, records = generate_family(family.replace("-", "_"),
                                      max_crossings, store)
    click.echo(f"digest {digest}")
    click.echo(f"generated {len(records)} knots")


def _load_cloud(cache_path, paths, fmt, convention, family, max_crossings):
    """The run's aligned cloud and dataset digests.  A family's cloud comes
    straight from the closed forms, which is cheaper than reading it back
    from a cache."""
    if family:
        from .families import family_cloud

        digest, cloud = family_cloud(family.replace("-", "_"), max_crossings)
        return cloud, [digest]
    from .filtration import record_cloud

    # cache path None -> in-memory only
    ds, records, _ = _computed(paths, fmt, InvariantCache(cache_path), None,
                               convention)
    return record_cloud(records), [ds.digest]


@main.command("analyze")
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default="dt", show_default=True)
@click.option("--dt-sign-convention", type=click.Choice(DT_CONVENTIONS),
              default="a", show_default=True)
@click.option("--family", type=click.Choice(["torus", "double-twist"]))
@click.option("--max-crossings", type=click.IntRange(min=3), default=None)
@click.option("--cache", type=click.Path(), default=None,
              help="invariant cache for dataset runs; --family runs "
                   "recompute from the closed forms and leave it untouched")
@click.option("--filtration", type=click.Choice(["crossing", "norm"]),
              default="crossing", show_default=True)
@click.option("--class", "class_filter",
              type=click.Choice(list(_CLASS_ALIASES)), default="all",
              show_default=True)
@click.option("--levels", type=click.IntRange(min=1), default=4,
              show_default=True)
@click.option("--kmin", type=int, default=3, show_default=True)
@click.option("--kmax", type=int, default=6, show_default=True)
@click.option("--bins", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--variance-threshold", type=float, default=0.95,
              show_default=True, callback=_share)
@click.option("--out", type=click.Path(), required=True)
@_report_errors
def analyze_cmd(paths, fmt, dt_sign_convention, family, max_crossings,
                cache, filtration, class_filter, levels, kmin, kmax, bins,
                variance_threshold, out):
    """Run a filtration analysis and write the report bundle."""
    if kmin > kmax:
        raise click.UsageError(f"--kmin {kmin} exceeds --kmax {kmax}")
    if family and max_crossings is None:
        raise click.UsageError("--family needs --max-crossings")
    if not family and not paths:
        raise click.UsageError("need dataset paths or --family")
    make_report_dir(out)  # before any record is computed into --cache
    cloud, digests = _load_cloud(cache, paths, fmt, dt_sign_convention,
                                 family, max_crossings)
    config = AnalysisConfig(
        filtration=filtration,
        class_filter=_CLASS_ALIASES[class_filter],
        k_min=kmin, k_max=kmax, levels=levels, bins=bins,
        variance_threshold=variance_threshold)
    spectra = run_analysis(cloud, config, out, digests, log=sys.stderr)
    for s in spectra:
        click.echo(f"step {s.label}: n={s.count} d={s.ambient_dim} "
                   f"dimension={s.dimension}")


def _read(path):
    """A bundle file's text, or Unreadable naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise Unreadable(f"cannot read {path}: {exc}") from None


@main.command("export")
@click.option("--what",
              type=click.Choice(["spectrum", "trajectory", "angles",
                                 "histogram", "projection"]),
              required=True)
@click.option("--out", type=click.Path(exists=True, file_okay=False),
              required=True,
              help="report bundle directory written by analyze")
@_report_errors
def export_cmd(what, out):
    """Print a report artifact from an analysis bundle to stdout; the
    spectrum prints one block per step, in the run_manifest's step order."""
    if what == "spectrum":
        path = os.path.join(out, "run_manifest")
        try:
            steps = (json.loads(_read(path))["steps"]
                     if os.path.exists(path) else [])
            names = [f"spectrum_step_{s['label']}.csv" for s in steps]
        except (ValueError, KeyError, TypeError) as exc:
            raise Unreadable(f"{path} is not a run manifest: {exc!r}") from None
    else:
        names = sorted(f for f in os.listdir(out) if f.startswith(what))
    if not names:
        raise KnotfoldError(f"no {what} artifact in {out}")
    for name in names:
        sys.stdout.write(_read(os.path.join(out, name)))


if __name__ == "__main__":
    main()
