"""Per-system tables live exactly as long as their RootSystem."""

import gc
import importlib
import pkgutil
import weakref

import pytest

import adlv
from adlv import cli
from adlv.alcove import AlcoveProfile, walk_profiles
from adlv.cartan import RootSystem, per_system
from adlv.criterion import decide_nonempty, oracle_nonempty
from adlv.iwahori import enumerate_affine, kottwitz_group, omega_elements
from adlv.notation import parse_affine
from adlv.weyl import DiagramAutomorphism, _intern, embedding_order, enumerate_w0


def _use_fresh_d4() -> weakref.ref:
    """Build a D4 system, run it through every cached layer and drop it."""
    system = RootSystem.from_descriptor("D4")
    sigma = DiagramAutomorphism.identity(system)
    x = parse_affine(system, "t[1,0,0,0] s2")
    profile = AlcoveProfile.build(x, sigma)
    verdict = decide_nonempty(x, profile.kappa, sigma, profile)
    assert oracle_nonempty(x, profile.kappa, sigma, profile).nonempty == verdict.nonempty
    assert len(omega_elements(system)) == len(kottwitz_group(system)) == 4
    assert sum(1 for _ in enumerate_w0(system)) == 192
    return weakref.ref(system)


def test_system_is_freed_with_its_last_user():
    ref = _use_fresh_d4()
    gc.collect()
    assert ref() is None


def test_fresh_systems_do_not_accumulate():
    refs = [_use_fresh_d4() for _ in range(41)]
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_tables_live_in_the_system_memo():
    system = RootSystem.from_descriptor("A2")
    omegas = omega_elements(system)
    assert omega_elements(system) is omegas
    assert system.memo[(omega_elements.__wrapped__,)] is omegas
    assert len(system.memo[_intern]) > 0
    assert not RootSystem.from_descriptor("A2").memo


def test_per_system_keys_on_positional_arguments():
    system = RootSystem.from_descriptor("A1")
    calls = []

    @per_system
    def table(system, n):
        calls.append(n)
        return [n]

    assert table(system, 1) is table(system, 1)
    assert table(system, 2) == [2]
    assert calls == [1, 2]
    with pytest.raises(TypeError):
        table(system, n=1)


def test_embedding_sets_live_in_the_system_memo_and_die_with_it():
    system = RootSystem.from_descriptor("B3")
    sigma = DiagramAutomorphism.identity(system)
    strip_sets = set()
    for x in enumerate_affine(system, 3):
        profile = AlcoveProfile.build(x, sigma)
        w_x = profile.w_x
        assert system.memo[(embedding_order.__wrapped__, profile.phi_x)] is w_x
        strip_sets.add(profile.phi_x)
    walked = [key for key in system.memo
              if isinstance(key, tuple) and key[0] is embedding_order.__wrapped__]
    # one walk memo entry per distinct Phi_x, and no second copy of any W_x
    assert sorted(walked, key=repr) == sorted(((embedding_order.__wrapped__, phi_x)
                                               for phi_x in strip_sets), key=repr)
    assert not any(isinstance(value, frozenset) and w_x <= value
                   for value in system.memo.values())
    ref = weakref.ref(system)
    del system, sigma, x, profile, w_x
    gc.collect()
    assert ref() is None


def test_row_text_lives_in_the_system_memo_and_dies_with_it():
    """``enumerate`` builds the phi_x and strips columns once per root set,
    as system.memo entries."""
    system = RootSystem.from_descriptor("B3")
    sigma = DiagramAutomorphism.identity(system)
    phi_sets, strip_sets = set(), set()
    for profile in walk_profiles(system, sigma, 3):
        row = cli._row(None, profile)
        assert system.memo[(cli._phi_x_text.__wrapped__, profile.phi_x)] is row["phi_x"]
        assert system.memo[(cli._strips_text.__wrapped__,
                            profile._strip_numbers)] is row["strips"]
        phi_sets.add(profile.phi_x)
        strip_sets.add(profile._strip_numbers)
    texts = [key for key in system.memo if isinstance(key, tuple)
             and key[0] in (cli._phi_x_text.__wrapped__, cli._strips_text.__wrapped__)]
    assert len(texts) == len(phi_sets) + len(strip_sets) > 2
    ref = weakref.ref(system)
    del system, sigma, profile, row
    gc.collect()
    assert ref() is None


def _walk_fresh_d4() -> weakref.ref:
    """Build a D4 system, read every profile off the length walk and drop it."""
    system = RootSystem.from_descriptor("D4")
    sigma = DiagramAutomorphism.identity(system)
    for profile in walk_profiles(system, sigma, 2):
        decide_nonempty(profile.x, profile.kappa, sigma, profile)
    return weakref.ref(system)


def test_system_walked_is_freed():
    ref = _walk_fresh_d4()
    gc.collect()
    assert ref() is None


def test_walk_adds_no_memo_key():
    """The walk keeps its state in the generator: after the closed forms have
    run over the same elements, walking them adds no key to the memo."""
    system = RootSystem.from_descriptor("D4")
    sigma = DiagramAutomorphism.identity(system)
    for x in enumerate_affine(system, 2):
        profile = AlcoveProfile.build(x, sigma)
        profile.affine_support, profile.k_numbers
    keys = set(system.memo)
    walked = list(walk_profiles(system, sigma, 2))
    assert len(walked) == 80
    assert set(system.memo) == keys


def _lru_cached_names() -> set[str]:
    """Every functools lru-cache wrapper defined at module or class level in adlv."""
    found = set()
    for info in pkgutil.walk_packages(adlv.__path__, "adlv."):
        module = importlib.import_module(info.name)
        candidates = list(vars(module).values())
        for value in vars(module).values():
            if isinstance(value, type):
                candidates += vars(value).values()
        for value in candidates:
            value = getattr(value, "__func__", value)  # staticmethod / classmethod
            if hasattr(value, "cache_info"):
                found.add(f"{value.__module__}.{value.__qualname__}")
    return found


def test_no_global_cache_outlives_a_system():
    # a module-level lru_cache keyed by a system would keep it alive forever;
    # per-system tables belong in system.memo (cartan.per_system)
    assert _lru_cached_names() == {"adlv.cli.make_parser"}
