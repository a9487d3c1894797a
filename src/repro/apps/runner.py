"""Standard application runs used by the experiments (cached profiles).

Application profiles are deterministic functions of (app, seed) and the
application/workload code, so they are persisted in the content-addressed
result store alongside kernel timings: a warm store replays the paper's
full-application experiments without re-executing a single codec.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterator, Tuple

from repro.apps.profile import AppProfile
from repro.isa.trace import ColumnarTrace, Trace
from repro.workloads import speech_signal, test_image, video_clip

#: The six Mediabench applications of Table II, presentation order.
APP_NAMES = ("jpegenc", "jpegdec", "mpeg2enc", "mpeg2dec", "gsmenc", "gsmdec")


def _compute_app_profile(app: str, seed: int = 0) -> Tuple[AppProfile, AppProfile]:
    """Run the codec behind ``app`` on its standard workload (no caching).

    One run profiles both directions of the codec, so this returns the
    encoder's profile and the decoder's, in that order.
    """
    if app in ("jpegenc", "jpegdec"):
        from repro.apps.jpeg import decode_image, encode_image

        image = test_image(128, 96, seed=seed)
        bitstream, enc_profile = encode_image(image, quality=75)
        _, dec_profile = decode_image(bitstream)
    elif app in ("mpeg2enc", "mpeg2dec"):
        from repro.apps.mpeg2 import decode_video, encode_video

        clip = video_clip(64, 48, frames=4, seed=seed)
        bits, _, enc_profile = encode_video(clip)
        _, dec_profile = decode_video(bits)
    elif app in ("gsmenc", "gsmdec"):
        from repro.apps.gsm import decode_speech, encode_speech

        speech = speech_signal(640, seed=seed)
        bits, enc_profile = encode_speech(speech)
        _, dec_profile = decode_speech(bits)
    else:
        raise KeyError(f"unknown application {app!r}; expected one of {APP_NAMES}")
    return enc_profile, dec_profile


def profile_to_dict(profile: AppProfile) -> Dict[str, Any]:
    """JSON record form of a profile (tally order preserved)."""
    return {
        "app": profile.app,
        "scalar": dict(profile.scalar),
        "kernel_items": dict(profile.kernel_items),
    }


def profile_from_dict(data: Dict[str, Any]) -> AppProfile:
    return AppProfile(
        app=data["app"],
        scalar=Counter(data["scalar"]),
        kernel_items=Counter(data["kernel_items"]),
    )


def _profile_key(app: str, seed: int) -> str:
    from repro.sweep.store import record_key

    return record_key("app-profile", {"app": app, "seed": seed})


def stream_app_kernel_traces(
    app: str, isa: str = "mmx64", seed: int = 0
) -> Iterator[Tuple[str, ColumnarTrace]]:
    """Yield ``(kernel, trace segment)`` for every kernel an app invokes.

    Emulates each kernel the application's profile calls, all through
    *one* shared trace builder, checkpointing between kernels: the
    builder's buffer only ever holds the segment currently being
    generated, so a long application run streams in bounded memory
    instead of accumulating the whole dynamic trace (the builder's
    ``checkpoint``/``clear`` API exists for exactly this).

    Each yielded segment is an immutable :class:`ColumnarTrace` ready
    for the timing model or the result store.
    """
    from repro.emu import Memory, make_machine
    from repro.kernels.registry import KERNELS

    profile = run_app_profile(app, seed)
    builder = Trace(f"{app}/{isa}")
    for kernel in profile.kernel_items:
        spec = KERNELS[kernel]
        if isa not in spec.versions:
            continue
        mem = Memory()
        wl = spec.make_workload(mem, seed)
        machine = make_machine(isa, mem, builder)
        spec.versions[isa](machine, wl)
        segment = builder.checkpoint()
        yield kernel, segment


def run_app_profile(app: str, seed: int = 0) -> AppProfile:
    """Execute one application on its standard workload; return profile.

    Answered from the store's memo, then the store, and only then by
    actually running the codec.  A codec run profiles both of its
    applications (e.g. ``jpegenc`` and ``jpegdec``), and both profiles
    are persisted and memoised, so the partner never runs it again.
    """
    if app not in APP_NAMES:
        raise KeyError(f"unknown application {app!r}; expected one of {APP_NAMES}")
    from repro.sweep.store import (
        MEMO,
        default_store,
        load_payload,
        memo_key,
        memoise,
        save_payload,
    )

    store = default_store()
    memo = memo_key(store, "app-profile", (app, seed))
    hit = MEMO.get(memo)
    if hit is not None:
        return hit
    stored = load_payload(store, _profile_key(app, seed))
    if stored is not None:
        return memoise(memo, profile_from_dict(stored))
    profiles = {p.app: p for p in _compute_app_profile(app, seed)}
    for name, profile in profiles.items():
        save_payload(
            store, "app-profile", _profile_key(name, seed),
            profile_to_dict(profile),
        )
        memoise(memo_key(store, "app-profile", (name, seed)), profile)
    return profiles[app]
