"""Command-line front end: JSON run configs in, data artifacts out.

Usage::

    possfit --config run.json [--seed N] [--threads K] [--verbose]

The config is a single JSON document whose ``command`` field selects one of
``contour | fit | calibrate | hypothesis | marginal | choquet``; all other
behavior is driven by config fields (there are no further flags).  ``--seed``
overrides or supplies the master seed, which is otherwise mandatory — no run
ever takes a default from the wall clock.  Exit codes: 0 success, 2
configuration error, 3 numerical failure; diagnostics go to standard error.

This module is the only code that writes files.  A command computes its
result and returns one pair of renderers, CSV and JSON (a grid's or report's
own ``csv_text`` and ``json_text``/``to_json_dict``); :func:`main` renders
both under one header built once per run (:func:`_headers`) and writes the
files the config's ``output`` block names.  Every output file is written to
a temporary name and atomically renamed into place, so failed runs leave no
partial outputs.  Each file carries a header block with the SHA-256 hash of
the effective config, the master seed and one ``generated`` timestamp, the
same in both files; no artifact holds a wall-clock timing, so rerunning the
same config reproduces every output byte-for-byte except for that line.
A grid's JSON (``contour``, ``marginal``) holds its ``kind``, ``seed`` and
``meta`` (a marginal's ``method`` and its ``infeasible`` node indices) before
``axes``, ``shape`` and ``values``.

A command reads only the top-level keys ``_COMMANDS`` names for it, and
each block (``output``, a data source, ``model_kwargs``, ``sa``, a grid
axis, ``bootstrap``, ``marginal``, a hypothesis, ``choquet``) only its own;
any other key is a config error, found by the one check
``contours.config_keys`` before any work starts on that block, and so is a
``bootstrap`` block next to any method but ``bootstrap``.  A regression's
design comes only from ``model_kwargs.design`` or the Poisson study design,
never from the data.

Randomness contract: with master seed ``s``, simulated datasets draw from
``derive_rng(s, CLI_TAG, 0)``; the contour/fit child seed is
``derive_rng(s, CLI_TAG, 1).integers(2**63)``; the search seed for hypothesis
``k`` is ``derive_rng(s, CLI_TAG, 2, k).integers(2**63)``; marginal and
Choquet computations use keys ``(s, CLI_TAG, 3)`` and ``(s, CLI_TAG, 4)``.

CSV dialect: comma-separated, one header row after the ``#`` header block,
``.`` decimal separator, UTF-8.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from ._render import csv_text, json_text, write_text
from ._rng import CLI_TAG, derive_rng
from .calibration import (
    Scenario,
    StudyError,
    build_contour,
    hypothesis_calibration,
    model_from_id,
    search_family,
    validity_study,
    variational_fit,
)
from .contours import (
    AxisSpec,
    ConfigError,
    NonFiniteContourError,
    config_bool,
    config_floats,
    config_int,
    config_keys,
    grid_eval,
)
from .families import family_to_json
from .inference import (
    ChoquetSpec,
    Hypothesis,
    NoComplementError,
    choquet_upper_expectation,
    lower_probability,
    marginal_contour,
    upper_probability,
)
from .models import (
    Dataset,
    DegenerateMLEError,
    MLEConvergenceError,
    SingularInformationError,
    domain_violation,
    read_dataset_csv,
)
from .nuisance import FiberOptimizationError, RiskMinimizationError
from .sa import SAConfig

__all__ = ["main"]

_NUMERICAL_ERRORS = (
    DegenerateMLEError,
    MLEConvergenceError,
    SingularInformationError,
    FiberOptimizationError,
    RiskMinimizationError,
    NonFiniteContourError,
    StudyError,
    np.linalg.LinAlgError,
    FloatingPointError,
    ZeroDivisionError,
    OverflowError,
)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str, seed_override) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if seed_override is not None:
        config["seed"] = int(seed_override)
    if "seed" not in config:
        raise ConfigError(
            "seed is mandatory: set it in the config or pass --seed "
            "(runs never default to the wall clock)"
        )
    config["seed"] = config_int(config["seed"], "seed")
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _headers(command: str, cfg_hash: str, seed: int):
    """(CSV comment lines, JSON header keys) of one run's artifacts, both
    with the same ``generated`` stamp."""
    generated = _now_iso()
    lines = [
        f"# possfit {command}",
        f"# config-sha256: {cfg_hash}",
        f"# seed: {seed}",
        f"# generated: {generated}",
    ]
    header = {
        "header": {
            "tool": "possfit",
            "command": command,
            "config_sha256": cfg_hash,
            "seed": seed,
            "generated": generated,
        }
    }
    return lines, header


def _parse_output(config: dict) -> dict:
    doc = config.get("output")
    config_keys(doc, ("csv", "json"), "the output block")
    paths = {k: str(doc[k]) for k in ("csv", "json") if doc.get(k)}
    if not paths:
        raise ConfigError("output must name at least one of csv / json")
    return paths


def _write_outputs(texts: dict, paths: dict, verbose: bool) -> None:
    """texts/paths keyed by format; all writes atomic (temp + rename)."""
    for key, path in paths.items():
        write_text(path, texts[key])
        if verbose:
            print(f"possfit: wrote {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# shared config fragments
# ---------------------------------------------------------------------------


def _parse_grid(config: dict):
    doc = config.get("grid")
    if not isinstance(doc, list) or not doc:
        raise ConfigError("grid must be a non-empty list of axis objects")
    return tuple(AxisSpec.from_dict(g) for g in doc)


def _parse_sa(config: dict):
    """The config's SAConfig, or None without an 'sa' block."""
    return None if config.get("sa") is None else SAConfig.from_dict(config["sa"])


#: the keys each data source reads; a csv source's sit in the data block itself
_DATA_KEYS = {"inline": ("responses", "censor"), "csv": ("csv", "response", "censor"),
              "simulate": ("theta", "n")}


def _model_and_data(config: dict, seed: int):
    """Resolve (model, data) from the config's model and data-source fields."""
    model_id = config.get("model")
    if not model_id:
        raise ConfigError("config needs a 'model' id")
    spec = config.get("data")
    if not isinstance(spec, dict):
        raise ConfigError(
            "config needs a 'data' source: inline | csv | simulate"
        )
    kinds = [k for k in _DATA_KEYS if k in spec]
    if len(kinds) != 1:
        raise ConfigError(
            "data source must be exactly one of inline | csv | simulate"
        )
    kind = kinds[0]

    data = None
    try:
        doc = spec if kind == "csv" else spec[kind]
        if any("covariates" in d for d in (spec, doc) if isinstance(d, dict)):
            raise ConfigError("data reads no covariates; a regression's design is "
                              "model_kwargs.design")
        config_keys(doc, _DATA_KEYS[kind], f"{kind} data")
        if doc is not spec:
            config_keys(spec, (kind,), "the data block")
        if kind == "inline":
            if "responses" not in doc:
                raise ConfigError("inline data needs a 'responses' array")
            censor = doc.get("censor")
            data = Dataset(
                responses=np.asarray(doc["responses"]),
                censor=None if censor is None else np.asarray(censor),
            )
            n = len(doc["responses"])
        elif kind == "csv":
            path = str(doc["csv"])
            if not os.path.isfile(path):
                raise ConfigError(f"data file not found: {path}")
            if "response" not in doc:
                raise ConfigError("csv data needs a 'response' column name")
            data = read_dataset_csv(path, response=doc["response"], censor=doc.get("censor"))
            n = len(data.responses)
        else:
            if "theta" not in doc or "n" not in doc:
                raise ConfigError("simulate data needs 'theta' and 'n'")
            n = config_int(doc["n"], "n")
    except ValueError as exc:  # the ConfigErrors above, and data Dataset rejects
        raise ConfigError(f"invalid data: {exc}") from None

    model = model_from_id(
        model_id,
        n=n,
        model_kwargs=config.get("model_kwargs"),
        log_params=config_bool(config.get("log_params", False), "log_params"),
    )
    if data is None:
        theta = np.ravel(config_floats(doc["theta"], "theta"))
        msg = domain_violation(model, theta, n)
        if msg is not None:
            raise ConfigError(f"simulate theta outside the {model.name} domain: needs {msg}")
        data = model.sample(theta, n, derive_rng(seed, CLI_TAG, 0))
        ok, rule = model.support(data.responses)
        if not ok:
            raise ConfigError(f"simulate theta {theta.tolist()} draws responses outside "
                              f"the {model.name} sample space: needs {rule}")
    return model, data


def _contour_from_config(config: dict, model, data, seed: int):
    """The config's contour of one dataset, for single-dataset commands."""
    method = config.get("method", "naive")
    if "bootstrap" in config and method != "bootstrap":
        raise ConfigError(f"the 'bootstrap' block is read only by the bootstrap "
                          f"method, not by {method!r}")
    boot = config.get("bootstrap", {})
    config_keys(boot, ("tau", "B"), "the bootstrap block")
    return build_contour(
        method,
        model,
        data,
        int(derive_rng(seed, CLI_TAG, 1).integers(2 ** 63)),
        m=config_int(config.get("m", 500), "m"),
        sa=_parse_sa(config),
        tau=boot.get("tau"),
        B=boot.get("B", 500),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_contour(config, seed, threads):
    axes = _parse_grid(config)
    model, data = _model_and_data(config, seed)
    contour = _contour_from_config(config, model, data, seed)
    grid = grid_eval(contour, axes, parallelism=threads)
    return grid.csv_text, grid.json_text


def _cmd_fit(config, seed, threads):
    model, data = _model_and_data(config, seed)
    child = int(derive_rng(seed, CLI_TAG, 1).integers(2 ** 63))
    family, trace = variational_fit(config.get("method", "variational-scalar"),
                                    model, data, _parse_sa(config), child)

    xi = np.atleast_1d(np.asarray(trace.xi_final, dtype=float))
    xi_repr = repr(float(xi[0])) if xi.size == 1 else [float(v) for v in xi]
    print(f"xi_hat: {xi_repr}")
    print(f"termination: {trace.reason}")
    evaluations = sum(trace.evaluations)
    print(f"failures: {trace.failures}")
    print(f"evaluations: {evaluations}")

    doc = family_to_json(family, iterations=len(trace.ts), termination=trace.reason,
                         failures=trace.failures, evaluations=evaluations)
    return trace.csv_text, lambda header: json_text(doc, header)


def _cmd_calibrate(config, seed, threads):
    scenario = Scenario.from_config(config)
    alphas = None if config.get("alphas") is None else config_floats(config["alphas"], "alphas")
    if "hypotheses" in config:
        hyps = [Hypothesis.from_dict(h) for h in config["hypotheses"]]
        result = hypothesis_calibration(
            scenario, hyps, alphas=alphas, threads=threads
        )
    else:
        result = validity_study(scenario, alphas=alphas, threads=threads)
    return result.csv_text, lambda header: json_text(result.to_json_dict(), header)


def _cmd_hypothesis(config, seed, threads):
    specs = config.get("hypotheses")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("hypothesis command needs a non-empty 'hypotheses' list")
    hyps = [Hypothesis.from_dict(h) for h in specs]
    model, data = _model_and_data(config, seed)
    contour = _contour_from_config(config, model, data, seed)
    for k, h in enumerate(hyps):
        if h.dim != contour.dim:
            raise ConfigError(
                f"hypothesis {k + 1} has dimension {h.dim}, expected {contour.dim}"
            )
    family = search_family(config.get("method", "naive"), contour, model, data)

    entries = []
    rows = []
    for k, h in enumerate(hyps):
        search_seed = int(derive_rng(seed, CLI_TAG, 2, k).integers(2 ** 63))
        upper = upper_probability(
            contour, h, family=family, seed=search_seed
        ).value
        try:
            lower = lower_probability(
                contour, h, family=family, seed=search_seed
            ).value
        except NoComplementError as exc:
            raise ConfigError(
                f"hypothesis {k + 1} has no lower probability: {exc}"
            )
        upper = min(max(float(upper), 0.0), 1.0)
        lower = min(max(float(lower), 0.0), min(upper, 1.0))
        entries.append(
            {
                "hypothesis": h.describe(),
                "upper": upper,
                "lower": lower,
            }
        )
        rows.append(f"{k + 1},{upper!r},{lower!r}")
        print(f"H{k + 1}: upper={upper:.6f} lower={lower:.6f}")

    return (lambda header: csv_text(header, ["hypothesis", "upper", "lower"], rows),
            lambda header: json_text({"hypotheses": entries}, header))


def _cmd_marginal(config, seed, threads):
    axes = _parse_grid(config)
    if len(axes) != 1:
        raise ConfigError("marginal command needs exactly one grid axis")
    doc = config.get("marginal")
    config_keys(doc, ("component", "linear"), "the marginal block")
    if len(doc) != 1:
        raise ConfigError("the marginal block names one feature: "
                          "{'component': i} or {'linear': [...]}")
    g = (config_int(doc["component"], "component") if "component" in doc
         else np.atleast_1d(config_floats(doc["linear"], "linear")))
    model, data = _model_and_data(config, seed)
    contour = _contour_from_config(config, model, data, seed)
    if not (0 <= g < contour.dim if np.ndim(g) == 0 else g.shape == (contour.dim,)):
        raise ConfigError(f"marginal feature {doc} does not fit dimension {contour.dim}")
    family = search_family(config.get("method", "naive"), contour, model, data)
    search_seed = int(derive_rng(seed, CLI_TAG, 3).integers(2 ** 63))
    grid = marginal_contour(
        contour,
        g,
        axes[0],
        family=family,
        seed=search_seed,
        parallelism=threads,
    )
    return grid.csv_text, grid.json_text


def _cmd_choquet(config, seed, threads):
    spec = ChoquetSpec.from_dict(config.get("choquet"))
    model, data = _model_and_data(config, seed)
    contour = _contour_from_config(config, model, data, seed)
    if spec.dim not in (None, contour.dim):
        raise ConfigError(f"the choquet loss has dimension {spec.dim}, expected {contour.dim}")
    family = search_family(config.get("method", "naive"), contour, model, data)
    child = int(derive_rng(seed, CLI_TAG, 4).integers(2 ** 63))
    result = choquet_upper_expectation(contour, spec, family=family, seed=child)
    print(f"choquet upper expectation: {float(result.value)!r}")
    out = {"value": float(result.value), "flags": list(result.flags)}
    return (lambda header: csv_text(header, ["value"], [repr(float(result.value))]),
            lambda header: json_text(out, header))


#: the top-level keys a data source and a contour of one dataset read
_SOURCE = ("model", "model_kwargs", "log_params", "data")
_CONTOUR = _SOURCE + ("method", "m", "sa", "bootstrap")

#: each command's handler and the top-level keys it reads besides command,
#: seed and output; a calibrate run's are a Scenario's fields (model for
#: model_id), its alphas and its hypotheses
_COMMANDS = {
    "contour": (_cmd_contour, _CONTOUR + ("grid",)),
    "fit": (_cmd_fit, _SOURCE + ("method", "sa")),
    "calibrate": (_cmd_calibrate, tuple("model" if f.name == "model_id" else f.name
                                        for f in fields(Scenario)) + ("alphas", "hypotheses")),
    "hypothesis": (_cmd_hypothesis, _CONTOUR + ("hypotheses",)),
    "marginal": (_cmd_marginal, _CONTOUR + ("grid", "marginal")),
    "choquet": (_cmd_choquet, _CONTOUR + ("choquet",)),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="possfit",
        description=(
            "Possibility-contour toolkit: run a JSON-configured contour, "
            "fit, calibration, hypothesis, marginal, or Choquet job."
        ),
    )
    parser.add_argument(
        "--config", required=True, help="path to the JSON run config"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override (or supply) the master seed",
    )
    parser.add_argument(
        "--threads", type=int, default=None,
        help="cap worker parallelism (default: machine cores); results are "
        "identical for any thread count",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log progress to stderr"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    if threads < 1:
        print("possfit: config error: --threads must be >= 1",
              file=sys.stderr)
        return 2
    try:
        config = _load_config(args.config, args.seed)
        command = config.get("command")
        if command not in COMMANDS:
            raise ConfigError(
                f"unknown command {command!r}; expected one of "
                f"{', '.join(COMMANDS)}"
            )
        handler, reads = _COMMANDS[command]
        config_keys(config, ("command", "seed", "output") + reads, f"the {command} command")
        cfg_hash = _config_hash(config)
        if args.verbose:
            print(
                f"possfit: running {command} (seed {config['seed']}, "
                f"threads {threads}, config {cfg_hash[:12]})",
                file=sys.stderr,
            )
        paths = _parse_output(config)
        # each command returns its (CSV, JSON) renderers; one header heads both
        render_csv, render_json = handler(config, config["seed"], threads)
        lines, header = _headers(command, cfg_hash, config["seed"])
        _write_outputs({"csv": render_csv(lines), "json": render_json(header)},
                       paths, args.verbose)
    except ConfigError as exc:
        print(f"possfit: config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"possfit: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
