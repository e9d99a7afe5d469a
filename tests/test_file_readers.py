"""Every file reader, given a small valid file with one byte changed or cut
short, either parses it or raises its own typed error.

Each byte is set to 0x00, 0xFF and 0x80 and has its low bit flipped, and
the file is cut at every length; anything but a parse or the reader's error
fails the test, naming the reader and the byte position.  A missing path
and a directory must raise the reader's error too, naming the path.
"""

import re

import numpy as np
import pytest

from difftts import audio, checkpoint, config, corpus, evalkit


def _wav(path):
    audio.write_wav(path, audio.Waveform(np.linspace(-0.5, 0.5, 64), 22050))


def _manifest(path):
    path.write_text("\t".join(evalkit.MANIFEST_COLUMNS) + "\n"
                    "u1\tlj\ten\thello there\thello their\t0.5\n"
                    "u2\tlj\ten\tab\tab\t\n", encoding="utf-8")


def _config(path):
    path.write_text("audio.n_mels=6\nmodel.d_model=8\ntrain.seed=3\n"
                    "token_mode=characters\n", encoding="utf-8")


def _speaker_map(path):
    path.write_text("u0\tspk0\nu1\tspk0\nu2\tspk1\n", encoding="utf-8")


def _checkpoint(path):
    checkpoint.save_checkpoint(path, {"step": 3, "vocab": ["a", "b"]},
                               {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})


def _mel_stats(path):
    audio.save_mel_stats(path, audio.MelStats(np.array([-1.0, 0.5]), 10,
                                              audio.AnalysisConfig().fingerprint()))


# reader name -> (writer of a valid file, reader, the reader's error)
READERS = {
    "load_wav": (_wav, audio.load_wav, audio.AudioFormatError),
    "read_manifest": (_manifest, evalkit.read_manifest, evalkit.ManifestError),
    "load_config": (_config, config.load_config, config.ConfigError),
    "read_speaker_map": (_speaker_map, corpus.read_speaker_map, corpus.CorpusError),
    "load_checkpoint": (_checkpoint, checkpoint.load_checkpoint, checkpoint.CheckpointError),
    "load_mel_stats": (_mel_stats, audio.load_mel_stats, audio.AudioFormatError),
}


def damaged(blob: bytes):
    """(description, bytes) for every single-byte change and every truncation."""
    for pos, old in enumerate(blob):
        for new in sorted({0x00, 0xFF, 0x80, old ^ 1} - {old}):
            yield f"byte {pos} set to {new:#04x}", blob[:pos] + bytes([new]) + blob[pos + 1:]
    for n in range(len(blob)):
        yield f"cut to {n} bytes", blob[:n]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_damaged_file_parses_or_raises_the_readers_error(reader, tmp_path):
    write, read, error = READERS[reader]
    valid = tmp_path / "valid"
    write(valid)
    read(valid)
    path = tmp_path / "damaged"
    escapes = []
    for what, blob in damaged(valid.read_bytes()):
        path.write_bytes(blob)
        try:
            read(path)
        except error:
            pass
        except Exception as exc:
            escapes.append(f"{reader}, {what}: {type(exc).__name__}({exc})")
    assert escapes == []


@pytest.mark.parametrize("reader", sorted(READERS))
def test_missing_path_or_directory_raises_the_readers_error_naming_it(reader, tmp_path):
    _, read, error = READERS[reader]
    for path in (tmp_path / "absent.file", tmp_path):
        with pytest.raises(error, match=re.escape(str(path))):
            read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_path_that_cannot_be_read_is_named_once(reader, tmp_path):
    _, read, error = READERS[reader]
    for path in (tmp_path / "absent.file", tmp_path):
        with pytest.raises(error) as caught:
            read(path)
        assert str(caught.value).count(str(path)) == 1, str(caught.value)
