import json

import pytest

import facekoszul.characters as characters
from facekoszul import Weight, irr_character, root_system
from facekoszul.cache import (
    CACHE_VERSION,
    CacheEntry,
    CharacterCache,
    cache_get,
    cache_put,
    default_cache_dir,
)
from facekoszul.characters import character_key, set_disk_cache
from facekoszul.cli import main


@pytest.fixture()
def isolated_memo():
    saved = dict(characters._MEMO)
    characters._MEMO.clear()
    try:
        yield
    finally:
        set_disk_cache(None)
        characters._MEMO.clear()
        characters._MEMO.update(saved)


def test_cold_miss_computes_and_stores(tmp_path, isolated_memo):
    cache = CharacterCache(tmp_path)
    set_disk_cache(cache)
    rs = root_system("A2")
    ch = irr_character(rs, Weight((1, 1)))
    assert ch.dimension == 8
    key = character_key(rs, Weight((1, 1)))
    assert cache.lookup(key) is not None
    assert cache.flush() == 1
    assert (tmp_path / "characters.jsonl").exists()


def test_warm_hit_bit_equal(tmp_path, isolated_memo):
    cache = CharacterCache(tmp_path)
    set_disk_cache(cache)
    rs = root_system("B2")
    first = dict(irr_character(rs, Weight((2, 1))).mults)
    cache.flush()

    characters._MEMO.clear()
    reloaded = CharacterCache(tmp_path)
    set_disk_cache(reloaded)
    key = character_key(rs, Weight((2, 1)))
    assert reloaded.lookup(key) is not None
    second = dict(irr_character(rs, Weight((2, 1))).mults)
    assert first == second

    # and bit-equal to a recomputation with no disk cache at all
    characters._MEMO.clear()
    set_disk_cache(None)
    third = dict(irr_character(rs, Weight((2, 1))).mults)
    assert first == third


def test_version_bump_is_a_miss(tmp_path, isolated_memo):
    cache = CharacterCache(tmp_path)
    set_disk_cache(cache)
    rs = root_system("A1")
    irr_character(rs, Weight((4,)))
    cache.flush()
    path = tmp_path / "characters.jsonl"
    bumped = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        obj["version"] = CACHE_VERSION + 1
        bumped.append(json.dumps(obj))
    path.write_text("\n".join(bumped) + "\n")
    fresh = CharacterCache(tmp_path)
    assert fresh.lookup(character_key(rs, Weight((4,)))) is None


def test_corrupted_lines_are_discarded(tmp_path):
    path = tmp_path / "characters.jsonl"
    good = CacheEntry("k1", (((0,), 1),)).to_json_line()
    path.write_text("not json at all\n" + good + "\n" + '{"version":1,"key":7}\n')
    cache = CharacterCache(tmp_path)
    assert cache.lookup("k1") == (((0,), 1),)
    assert cache.lookup("7") is None


def test_entry_roundtrip_bit_exact():
    entry = CacheEntry("some|key", (((1, -2), 3), ((0, 0), 2)))
    line = entry.to_json_line()
    obj = json.loads(line)
    assert obj["key"] == "some|key"
    assert obj["weights"] == [[[1, -2], 3], [[0, 0], 2]]
    assert CacheEntry(
        obj["key"], tuple((tuple(w), m) for w, m in obj["weights"]), obj["version"]
    ) == entry


def test_cache_get_put_surface(tmp_path):
    cache = CharacterCache(tmp_path)
    assert cache_get(cache, "missing") is None
    entry = CacheEntry("k", (((2,), 1),))
    cache_put(cache, entry)
    got = cache_get(cache, "k")
    assert got == entry
    with pytest.raises(ValueError):
        cache_put(cache, CacheEntry("k2", (), version=99))


def test_flush_appends_only_fresh_entries(tmp_path):
    cache = CharacterCache(tmp_path)
    cache.store("a", (((0,), 1),))
    assert cache.flush() == 1
    assert cache.flush() == 0
    cache.store("a", (((0,), 2),))  # duplicate keys are kept as first stored
    assert cache.flush() == 0
    cache.store("b", (((1,), 1),))
    assert cache.flush() == 1
    lines = (tmp_path / "characters.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("FACEKOSZUL_CACHE_DIR", str(tmp_path / "enved"))
    assert default_cache_dir() == tmp_path / "enved"
    monkeypatch.delenv("FACEKOSZUL_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "facekoszul"


def _tamper_a2_adjoint(path, true_mults):
    """Write the A2 1,1 line with one unit of multiplicity moved from (0,0) to
    (1,-2): dimension and top multiplicity still match, W-invariance fails."""
    bad = dict(true_mults)
    bad[(0, 0)] -= 1
    bad[(1, -2)] += 1
    rs = root_system("A2")
    entry = CacheEntry(character_key(rs, Weight((1, 1))), tuple(sorted(bad.items())))
    path.write_text(entry.to_json_line() + "\n")


def test_tampered_line_is_recomputed_and_written_back(tmp_path, isolated_memo, capsys):
    rs = root_system("A2")
    true_mults = {tuple(w): m for w, m in irr_character(rs, Weight((1, 1))).mults.items()}
    path = tmp_path / "characters.jsonl"
    key = character_key(rs, Weight((1, 1)))

    _tamper_a2_adjoint(path, true_mults)
    characters._MEMO.clear()
    code = main(["--cache-dir", str(tmp_path), "--json", "character", "A2", "1,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["dimension"] == 8
    assert {tuple(w): m for w, m in out["weights"]} == true_mults
    # the recomputed line was appended and wins on the next load
    assert dict(CharacterCache(tmp_path).lookup(key)) == true_mults

    _tamper_a2_adjoint(path, true_mults)
    characters._MEMO.clear()
    args = ["koszul", "A2", "adjoint", "--face=2,-1;1,1", "--lo=0,0@0", "--hi=3,0@2"]
    code = main(["--cache-dir", str(tmp_path), *args])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "PASS" in captured.out
    assert dict(CharacterCache(tmp_path).lookup(key)) == true_mults


def test_replace_overrides_and_appends(tmp_path):
    cache = CharacterCache(tmp_path)
    cache.store("a", (((0,), 1),))
    cache.flush()
    cache.replace("a", (((0,), 2),))
    assert cache.lookup("a") == (((0,), 2),)
    assert cache.flush() == 1
    assert CharacterCache(tmp_path).lookup("a") == (((0,), 2),)
