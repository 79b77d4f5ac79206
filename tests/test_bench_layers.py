"""The traced benchmark's call surface, run once untraced.

``bench/layers.py`` is imported only by ``bench/run.py --trace 1``, and
``python -m pytest bench`` never loads it. It calls the library's public
names directly, so a deleted or renamed name would only show up in a
traced run. One pass of its table and protocol layers here catches that.
The benchmark's log generator is the one reader of the bundled
``protocol_settings.csv``, so its reading of that file is checked here too.
"""

import sys
from contextlib import nullcontext
from pathlib import Path

from hwrbench.games import data_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402
import loggen  # noqa: E402
import oracle  # noqa: E402


def no_span(_name):
    return nullcontext()


def test_table_layers_agree_with_the_oracle(tmp_path):
    scratch = tmp_path / "s"
    got = layers.table_layers(no_span, [], scratch)
    assert (got["records"], got["cells"]) == (716, 3174)
    assert layers.check_tables(got, oracle.Tables(data_path()), scratch) == []


def test_protocol_layers_on_a_small_log(tmp_path):
    log = tmp_path / "episodes.log"
    log.write_text("1 3 0 4\n-2 3 0 4\n3 0 1 4\n---\n5 1 0 4\n0 0 1 4\n", encoding="utf-8")
    got = layers.protocol_layers(no_span, log, k=2)
    assert got["steps"] == 5
    assert [s.episode_return for s in got["summaries"]] == [2.0, 5.0]
    assert got["final"] == 3.5
    ledger = got["ledger"]
    assert (len(ledger.episodes), ledger.total_env_frames, ledger.averaging_k) == (2, 20, 2)


def test_log_generator_reads_the_bundled_averaging_windows():
    assert loggen.published_ks(data_path()) == [5, 10, 32, 50, 100, 200, 1000]
