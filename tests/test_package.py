"""The package's exports resolve on first use; cli still names the stage modules."""

import importlib

import pytest

import hoaxlens
from hoaxlens import cli


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from hoaxlens import *", namespace)
    assert set(hoaxlens.__all__) <= set(namespace)


@pytest.mark.parametrize("name", hoaxlens.__all__)
def test_every_export_resolves_to_its_definition(name):
    value = getattr(hoaxlens, name)
    module = importlib.import_module(value.__module__)
    assert getattr(module, name) is value


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        hoaxlens.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_module


@pytest.mark.parametrize("name", ["attention", "corpus", "logstore", "svgplot", "wikitext"])
def test_cli_names_each_stage_module(name):
    assert getattr(cli, name) is importlib.import_module(f"hoaxlens.{name}")
