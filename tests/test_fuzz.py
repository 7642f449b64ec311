"""Seeded mutation fuzzing of every text parser.

Valid inputs are mutated by inserting, deleting and replacing bytes, drawn
from a fixed splitmix64 stream, so every run replays the same cases.  Whatever
comes out, a parser may accept it or raise one of its documented error types;
any other exception (or a traceback at the CLI) is a bug in the program.
"""

import pytest

from daylux.config import (
    ConfigError,
    SimConfig,
    apply_settings,
    build_daylight,
    build_lut,
    load_config_file,
)
from daylux.plant import TableFormatError, load_daylight_csv, load_lut_csv
from daylux.rng import SplitMix64

SEED = 0xDA7
CASES = 300  # per target; all six targets together take well under 2 s
MAX_EDITS = 4
ALLOWED = (ConfigError, TableFormatError, ValueError)
# Half of the inserted bytes come from the parsers' own syntax, so mutations
# reach past the first check; the rest are any byte at all.
SYNTAX = b"0123456789,:=.-+e_ \t\n\r#\"'acdfiklnpstuvy\x00\x80\xff"

LUT_CSV = b"u,e\n# comment\n0,0\n64,30\n128,80\n255,180\n"
DAYLIGHT_CSV = b"k,e\n0,30\n1,31\n2,33\n3,30\n"
CONFIG = (
    "# run settings\n"
    "steps = 30\n"
    "e_desired = 100\n"
    "gamma_controller = 0.15\n"
    "gamma_inverse = 0.15\n"
    "seed_controller = 2\n"
    "seed_inverse = 2\n"
    "seed_daylight = 2\n"
    "lut_source = synthetic:e_max=180,shape=1.3,knots=32\n"
    "daylight_source = fast:base=40,amplitude=60,step_prob=0.05,max_jump=50\n"
    "warmup = 10\n"
    "error_scaling = shared255\n"
    "inverse_target_lag = 1\n"
    "plant_delay = 0\n"
    "use_bias = no\n"
    "out_dir = out\n"
).encode()


def mutate(rng: SplitMix64, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(1 + rng.next_u64() % MAX_EDITS):
        op = rng.next_u64() % 3
        byte = SYNTAX[rng.next_u64() % len(SYNTAX)] if rng.next_u64() % 2 else rng.next_u64() % 256
        if op == 0 or not buf:
            buf.insert(rng.next_u64() % (len(buf) + 1), byte)
        elif op == 1:
            del buf[rng.next_u64() % len(buf)]
        else:
            buf[rng.next_u64() % len(buf)] = byte
    return bytes(buf)


def lut_spec(data: bytes) -> None:
    cfg = SimConfig(steps=20, lut_source=data.decode("latin-1"))
    cfg.validate()
    build_lut(cfg)


def lut_command_spec(data: bytes) -> None:
    # `daylux lut` builds its table without validate, so build_lut alone must
    # turn a bad spec or a missing file into a documented error.
    build_lut(SimConfig(lut_source=data.decode("latin-1")))


def daylight_spec(data: bytes) -> None:
    cfg = SimConfig(steps=20, daylight_source=data.decode("latin-1"))
    cfg.validate()
    build_daylight(cfg)


def config_file(data: bytes) -> None:
    with open("fuzz.cfg", "wb") as fh:
        fh.write(data)
    cfg = SimConfig()
    apply_settings(cfg, load_config_file("fuzz.cfg"), origin="fuzz.cfg")
    cfg.validate()


def lut_csv(data: bytes) -> None:
    with open("fuzz.csv", "wb") as fh:
        fh.write(data)
    load_lut_csv("fuzz.csv")


def daylight_csv(data: bytes) -> None:
    with open("fuzz.csv", "wb") as fh:
        fh.write(data)
    load_daylight_csv("fuzz.csv")


TARGETS = {
    "lut_spec": (lut_spec, [b"synthetic", b"synthetic:e_max=180,shape=1.3,knots=32",
                            b"csv:lut.csv"]),
    "daylight_spec": (daylight_spec, [b"constant:30", b"step:0,100,10", b"ramp:0,80",
                                      b"fast:base=40,amplitude=60,step_prob=0.05,max_jump=50",
                                      b"csv:day.csv"]),
    "config_file": (config_file, [CONFIG]),
    "lut_csv": (lut_csv, [LUT_CSV]),
    "daylight_csv": (daylight_csv, [DAYLIGHT_CSV]),
}
TARGETS["lut_command_spec"] = (lut_command_spec, TARGETS["lut_spec"][1])


@pytest.mark.parametrize("target", list(TARGETS))
def test_mutated_inputs_raise_only_documented_errors(tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)  # spec paths and scratch files resolve here
    (tmp_path / "lut.csv").write_bytes(LUT_CSV)
    (tmp_path / "day.csv").write_bytes(DAYLIGHT_CSV)
    parse, corpus = TARGETS[target]
    for valid in corpus:
        parse(valid)
    rng = SplitMix64(SEED)
    accepted = rejected = 0
    for case in range(CASES):
        data = mutate(rng, corpus[rng.next_u64() % len(corpus)])
        try:
            parse(data)
            accepted += 1
        except UnicodeDecodeError as exc:  # a ValueError, but names no file or line
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} on input {data!r}")
        except ALLOWED:
            rejected += 1
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} on input {data!r}")
    # Both outcomes occur, so the mutations exercise accept and reject paths.
    assert accepted > 0 and rejected > 0


@pytest.mark.parametrize("target, error", [
    ("config_file", ConfigError),
    ("lut_csv", TableFormatError),
    ("daylight_csv", TableFormatError),
])
def test_non_utf8_files_raise_the_documented_error(tmp_path, monkeypatch, target, error):
    monkeypatch.chdir(tmp_path)
    parse, corpus = TARGETS[target]
    for at in (0, len(corpus[0]) // 2, len(corpus[0])):
        data = corpus[0][:at] + b"\xff" + corpus[0][at:]
        with pytest.raises(error) as err:
            parse(data)
        assert not isinstance(err.value, UnicodeDecodeError)
        assert "invalid UTF-8 byte 0xff at line " in str(err.value)
