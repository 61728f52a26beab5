"""Embeddable conversational-concurrency runtime: a shared dataspace of
assertions with set-view routing, actors structured as facet trees, derived
coordination forms, a deterministic virtual-time timer, and a scripted
market simulation exercising the whole stack."""

from .dataspace import Dataspace, MaxTurnsExceeded, Patch
from .drivers import Clock, advance_virtual_time, spawn_timer_driver
from .facets import Actor, DeadFieldAccess, Facet, Field, render_tree
from .forms import during, on_timeout, query_map, state_machine, stop_when
from .values import (
    Boolean,
    Decimal,
    Integer,
    Record,
    Sequence,
    Symbol,
    Text,
    Unique,
    Value,
    WILDCARD,
    cap,
    lit,
    match,
    observe,
    parse,
    parse_all,
    rec,
    render,
    rpat,
    spat,
    sym,
)

__all__ = [name for name in dir() if not name.startswith("_")]
