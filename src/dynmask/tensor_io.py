"""Dense float32 tensor container and multi-view scene bundles.

Everything on disk goes through two formats:

* ``.dmt`` tensors -- magic ``DMT1``, u8 ndim, ndim little-endian u32
  extents, then the row-major little-endian float32 payload.  NaN-free by
  contract on both ends; infinities round-trip, but a scene bundle built
  from them fails :func:`validate_bundle`.
* binary PGM (P5) for masks.

A scene directory is self-describing: a ``scene.json`` manifest names every
tensor file plus the camera parameters, so a bundle can be diffed, copied,
or regenerated file by file.  Every (T, ...) stack, in ``scene.json`` and
in the generator's ``gt.json`` alike, is one file ``<prefix>.<ext>`` named
under the stack's manifest key; a mask stack is one (T*H, W) PGM.
:func:`write_stack` and :func:`read_stack` are the only code that writes
and checks that layout.  A list under a stack key is the one-file-per-frame
layout of earlier versions, which is refused: such a directory must be
regenerated.

Every value read from JSON (config, spec, ``scene.json``, ``gt.json``)
passes one checker, :func:`json_value`, :func:`json_vector` and
:func:`json_object`: a bool, a string or a null is not a number, and a
number beyond float range is not finite.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import CameraModel

MAGIC = b"DMT1"
MAX_NDIM = 5


class TensorFormatError(ValueError):
    """Malformed tensor file or tensor that violates container invariants."""


class SceneFormatError(ValueError):
    """Scene directory that fails manifest or cross-tensor validation."""


# ---------------------------------------------------------------------------
# JSON values
# ---------------------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max  # a Python float: ints compare exactly
# kind -> (type returned, what the value must be)
_JSON_KINDS = {"bool": (bool, "true or false"),
               "int": (int, "a finite whole number"),
               "float": (float, "a finite number")}


def json_value(value, kind: str, where: str, error=ValueError):
    """`value` as `kind`: "bool", "int" (3 and 3.0 give 3) or "float".

    A number is finite when it lies within float range; integers are
    compared as integers, never converted to float first.  Anything else
    raises `error`, naming `where`.
    """
    cast, text = _JSON_KINDS[kind]
    if kind == "bool":
        ok = isinstance(value, bool)
    else:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and -_FLOAT_MAX <= value <= _FLOAT_MAX)  # False for NaN
        if ok and kind == "int" and not isinstance(value, numbers.Integral):
            ok = float(value).is_integer()
    if not ok:
        raise error(f"{where} {value!r} must be {text}")
    return cast(value)


def json_vector(value, n: int, where: str, error=ValueError) -> np.ndarray:
    """A list of exactly `n` finite numbers, as a float64 array."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise error(f"{where} {value!r} must be a list of {n} numbers")
    return np.array([json_value(v, "float", where, error) for v in value])


def json_object(raw, where: str, known) -> dict:
    """`raw` as a JSON object whose keys all lie in `known`."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return raw


def write_atomic(path: str | Path, *chunks: bytes | memoryview) -> None:
    """Write `chunks` to `path` through a per-process temporary file.

    Readers see either the old file or the complete new one, never a
    partial write, and writers in different processes never share a
    temporary.  A write that raises, or is interrupted, removes its
    temporary.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# dmt tensor container
# ---------------------------------------------------------------------------

def write_tensor(tensor: np.ndarray, path: str | Path) -> None:
    """Write an array to `path` in the dmt container format.

    The array is converted to float32, C order.  Validation happens before
    the file is opened, so a rejected tensor never leaves a partial file.
    """
    arr = np.ascontiguousarray(tensor, dtype="<f4")
    if arr.ndim < 1 or arr.ndim > MAX_NDIM:
        raise TensorFormatError(f"tensor rank {arr.ndim} outside 1..{MAX_NDIM}")
    if any(d <= 0 for d in arr.shape):
        raise TensorFormatError(f"zero extent in shape {arr.shape}")
    if np.isnan(arr.min()):  # min propagates NaN
        raise TensorFormatError("NaN in tensor payload")

    header = MAGIC + bytes([arr.ndim])
    header += np.asarray(arr.shape, dtype="<u4").tobytes()
    write_atomic(path, header, arr.data)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a dmt tensor; exact inverse of :func:`write_tensor`."""
    with open(path, "rb") as f:
        head = f.read(5)
        if head[:4] != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 5:
            raise TensorFormatError(f"{path}: truncated header")
        ndim = head[4]
        if ndim < 1 or ndim > MAX_NDIM:
            raise TensorFormatError(
                f"{path}: rank {ndim} outside 1..{MAX_NDIM}")
        table = f.read(4 * ndim)
        if len(table) < 4 * ndim:
            raise TensorFormatError(f"{path}: truncated extent table")
        shape = tuple(int(d) for d in np.frombuffer(table, dtype="<u4"))
        if 0 in shape:
            raise TensorFormatError(f"{path}: zero extent in {shape}")
        count = math.prod(shape)
        expect = 5 + 4 * ndim + 4 * count
        size = os.fstat(f.fileno()).st_size
        if size != expect:
            raise TensorFormatError(
                f"{path}: payload size {size} bytes, expected {expect}")
        data = np.empty(shape, dtype="<f4")
        if f.readinto(data) != data.nbytes:
            raise TensorFormatError(f"{path}: payload ended early")
    if np.isnan(data.min()):  # min propagates NaN
        raise TensorFormatError(f"{path}: NaN in payload")
    return data


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def write_pgm(mask: np.ndarray, path: str | Path) -> None:
    """Write a 2-D binary mask as 8-bit binary PGM: set pixels 255, others 0."""
    data = np.where(mask, np.uint8(255), np.uint8(0))
    if data.ndim != 2:
        raise TensorFormatError("PGM image must be 2-D")
    h, w = data.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii"), data.data)


_SPACE = b" \t\n\r\v\f"  # what bytes.isspace() accepts


def read_pgm(path: str | Path) -> np.ndarray:
    """Read an 8-bit binary PGM image as a uint8 array of shape (H, W).

    The header is ``P5``, width, height and maxval 255 as whole numbers,
    separated by whitespace or ``#`` comments and ended by one whitespace
    byte; the payload after it must be exactly width * height bytes.  The
    file is read into one array, and the image is a view of its payload.
    """
    with open(path, "rb") as f:
        data = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        if f.readinto(data) != data.size:
            raise TensorFormatError(f"{path}: file ended early")
    raw = data.data  # bytes as ints, no copy
    if raw[:2] != b"P5":
        raise TensorFormatError(
            f"{path}: bad PGM magic {bytes(raw[:2])!r}, wanted b'P5'")
    fields: list[bytes] = []
    i = 2
    while len(fields) < 3:
        while i < len(raw) and raw[i] in _SPACE:
            i += 1
        if raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(raw) and raw[j] not in _SPACE:
            j += 1
        if j == i:
            raise TensorFormatError(f"{path}: truncated PGM header")
        fields.append(bytes(raw[i:j]))
        i = j
    if not all(field.isdigit() for field in fields):
        raise TensorFormatError(f"{path}: PGM header {fields} is not three "
                                "whole numbers")
    w, h, maxval = (int(field) for field in fields)
    if w < 1 or h < 1:
        raise TensorFormatError(f"{path}: PGM dims {w}x{h}, each must be >= 1")
    if maxval != 255:
        raise TensorFormatError(f"{path}: unsupported PGM maxval {maxval}")
    size = len(raw) - (i + 1)
    if size != w * h:
        raise TensorFormatError(
            f"{path}: PGM payload size {max(size, 0)} bytes, expected {w * h}")
    return data[i + 1:].reshape(h, w)


# ---------------------------------------------------------------------------
# scene bundles
# ---------------------------------------------------------------------------

@dataclass
class SceneBundle:
    """A complete multi-view input package.

    All per-frame tensors are stacked along the leading frame axis and kept
    in the float32 precision of the on-disk container.  Depth 0 marks an
    invalid pixel; validity is always `depth > 0`.
    """

    images: np.ndarray             # (T, H, W, 3), values in [0, 1]
    depths: np.ndarray             # (T, H, W), meters, 0 = invalid
    confidence_logits: np.ndarray  # (T, H, W), unbounded
    attention: np.ndarray          # (T, heads, H', W'), per-head responses
    cameras: list[CameraModel]
    patch: int
    gt_masks: np.ndarray | None = None  # (T, H, W) bool

    @property
    def frames(self) -> int:
        return self.images.shape[0]

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def width(self) -> int:
        return self.images.shape[2]

    @property
    def heads(self) -> int:
        return self.attention.shape[1]


def validate_bundle(bundle: SceneBundle) -> None:
    """Check every cross-tensor invariant; raise SceneFormatError on failure."""
    t, h, w = bundle.frames, bundle.height, bundle.width
    if bundle.images.shape != (t, h, w, 3):
        raise SceneFormatError(f"images shape {bundle.images.shape}")
    if bundle.depths.shape != (t, h, w):
        raise SceneFormatError(
            f"depth dims {bundle.depths.shape[1:]} != image dims {(h, w)}")
    if bundle.confidence_logits.shape != (t, h, w):
        raise SceneFormatError(
            f"confidence dims {bundle.confidence_logits.shape[1:]} != image dims {(h, w)}")
    if bundle.attention.ndim != 4 or bundle.attention.shape[0] != t:
        raise SceneFormatError(f"attention shape {bundle.attention.shape}")
    hp, wp = bundle.attention.shape[2:]
    if bundle.patch <= 0 or hp * bundle.patch != h or wp * bundle.patch != w:
        raise SceneFormatError(
            f"attention grid {(hp, wp)} x patch {bundle.patch} != image dims {(h, w)}")
    if len(bundle.cameras) != t:
        raise SceneFormatError(f"{len(bundle.cameras)} cameras for {t} frames")
    # the container admits infinities; a scene does not (one infinite depth
    # makes the purification radius infinite)
    for arr, name in ((bundle.images, "images"), (bundle.depths, "depths"),
                      (bundle.confidence_logits, "confidences"),
                      (bundle.attention, "attentions")):
        if not np.isfinite(arr).all():
            raise SceneFormatError(f"non-finite value (NaN or inf) in {name}")
    if (bundle.depths < 0).any():
        raise SceneFormatError("negative depth value")
    if bundle.images.min() < 0 or bundle.images.max() > 1:
        raise SceneFormatError("image values outside [0, 1]")
    if bundle.gt_masks is not None and bundle.gt_masks.shape != (t, h, w):
        raise SceneFormatError(f"gt mask shape {bundle.gt_masks.shape}")


def _camera_to_json(cam: CameraModel) -> dict:
    return {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "R": [float(v) for v in np.asarray(cam.R, dtype=np.float64).ravel()],
        "t": [float(v) for v in np.asarray(cam.t, dtype=np.float64).ravel()],
    }


def _camera_from_json(entry, where: str) -> CameraModel:
    if not isinstance(entry, dict):
        raise SceneFormatError(f"camera entry {entry!r} is not an object")
    missing = [k for k in ("fx", "fy", "cx", "cy", "R", "t") if k not in entry]
    if missing:
        raise SceneFormatError(f"camera missing {missing}")
    fx, fy, cx, cy = (json_value(entry[k], "float", f"{where} {k}",
                                 SceneFormatError)
                      for k in ("fx", "fy", "cx", "cy"))
    R, t = (json_vector(entry[k], n, f"{where} {k}", SceneFormatError)
            for k, n in (("R", 9), ("t", 3)))
    try:
        return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, R=R.reshape(3, 3), t=t)
    except ValueError as exc:
        raise SceneFormatError(f"invalid camera: {exc}") from exc


def _cameras_from_json(manifest: dict) -> list[CameraModel]:
    entries = manifest.get("cameras")
    if not isinstance(entries, list):
        raise SceneFormatError("manifest cameras is not a list of cameras")
    return [_camera_from_json(c, f"cameras[{i}]")
            for i, c in enumerate(entries)]


def _manifest_count(manifest: dict, key: str) -> int:
    """A required whole number of at least 1; 8 and 8.0 both pass."""
    value = json_value(manifest.get(key), "int", f"manifest {key}",
                       SceneFormatError)
    if value < 1:
        raise SceneFormatError(f"manifest {key} {value} must be >= 1")
    return value


# ---------------------------------------------------------------------------
# stacks: the one on-disk layout of scene.json and gt.json
# ---------------------------------------------------------------------------

def read_manifest(path: Path) -> dict:
    """Parse a JSON manifest that must hold one object."""
    if not path.is_file():
        raise SceneFormatError(f"missing manifest {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise SceneFormatError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SceneFormatError(f"{path} does not hold a JSON object")
    return manifest


def write_stack(stack: np.ndarray, out_dir: Path, prefix: str,
                ext: str = "dmt") -> str:
    """Write the (T, ...) `stack` as one file ``<prefix>.<ext>``.

    A ``pgm`` stack is (T, H, W) masks, written as one (T*H, W) image.
    Returns the file name for the manifest.
    """
    name = f"{prefix}.{ext}"
    if ext == "pgm":
        write_pgm(stack.reshape(-1, stack.shape[-1]), out_dir / name)
    else:
        write_tensor(stack, out_dir / name)
    return name


def read_stack(root: Path, manifest: dict, key: str, frames: int,
               frame_shape: tuple[int, ...] | None = None,
               ext: str = "dmt") -> np.ndarray:
    """Read the stack file `manifest[key]` names; inverse of write_stack.

    The file must hold `frames` frames, each of `frame_shape` when given.
    A PGM stack comes back as (T, H, W) bool masks.
    """
    name = manifest.get(key)
    if isinstance(name, list):
        raise SceneFormatError(
            f"manifest {key!r} lists one file per frame, the layout of "
            "earlier versions; regenerate the scene with `dynmask generate`")
    if not isinstance(name, str):
        raise SceneFormatError(
            f"manifest {key!r} is missing or not a file name")
    path = root / name
    if not path.is_file():
        raise SceneFormatError(f"missing {key} file {path}")
    if ext == "pgm":
        image = read_pgm(path)
        # thresholded in place: the masks share the image's buffer
        mask = np.greater(image, 127, out=image.view(bool))
        rows = mask.shape[0]
        if rows % frames:
            raise SceneFormatError(f"{key} file {path}: {rows} rows do not "
                                   f"split into {frames} frames")
        stack = mask.reshape(frames, rows // frames, mask.shape[1])
    else:
        stack = read_tensor(path)
    if stack.shape[0] != frames:
        raise SceneFormatError(f"{key} file {path} holds {stack.shape[0]} "
                               f"frames, expected {frames}")
    if frame_shape is not None and stack.shape[1:] != tuple(frame_shape):
        raise SceneFormatError(f"{key} file {path} frame shape "
                               f"{stack.shape[1:]} != {tuple(frame_shape)}")
    return stack


# (bundle field, manifest key, file prefix) of each scene.json tensor stack
_SCENE_STACKS = (("images", "images", "img"), ("depths", "depths", "depth"),
                 ("confidence_logits", "confidences", "conf"),
                 ("attention", "attentions", "attn"))


def save_scene(bundle: SceneBundle, out_dir: str | Path) -> None:
    """Write a bundle into `out_dir` as tensors plus a scene.json manifest."""
    validate_bundle(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "frames": bundle.frames, "height": bundle.height,
        "width": bundle.width, "heads": bundle.heads, "patch": bundle.patch,
        "cameras": [_camera_to_json(c) for c in bundle.cameras],
    }
    for field, key, prefix in _SCENE_STACKS:
        manifest[key] = write_stack(getattr(bundle, field), out, prefix)
    if bundle.gt_masks is not None:
        manifest["gt_masks"] = write_stack(bundle.gt_masks, out, "gt_mask",
                                           "pgm")
    write_json(manifest, out / "scene.json")


@dataclass
class _SceneHeader:
    """What scene.json says about a scene, before any tensor is read."""

    manifest: dict
    frames: int
    height: int
    width: int
    heads: int
    patch: int
    cameras: list[CameraModel]


def _read_header(root: Path) -> _SceneHeader:
    """Parse `root`'s scene.json: its five counts and one camera per frame.

    This is the one scene.json parser; :func:`load_scene` calls it, and
    so do the commands that read no input tensor (``eval`` and
    ``residuals``).  Each count must be a whole number >= 1 and each
    camera pass the JSON value rule; anything else raises
    SceneFormatError.  The tensor stacks the manifest lists are neither
    opened nor checked here.
    """
    manifest = read_manifest(root / "scene.json")
    counts = (_manifest_count(manifest, key)
              for key in ("frames", "height", "width", "heads", "patch"))
    header = _SceneHeader(manifest, *counts,
                          cameras=_cameras_from_json(manifest))
    if len(header.cameras) != header.frames:
        raise SceneFormatError(
            f"{len(header.cameras)} cameras for {header.frames} frames")
    return header


def load_scene(scene_dir: str | Path) -> SceneBundle:
    """Load and fully validate a scene bundle's pipeline inputs.

    Reads the header (:func:`_read_header`) and every input tensor stack,
    and checks the bundle with :func:`validate_bundle` and its extents
    against the header's.  The ground truth is not read, so the bundle's
    `gt_masks` is None; ``dynmask eval`` reads the masks with
    :func:`read_stack`.  Manifest keys the loader does not read are
    ignored, so directories written with keys that later versions dropped
    still load.
    """
    root = Path(scene_dir)
    header = _read_header(root)
    stacks = {field: read_stack(root, header.manifest, key, header.frames)
              for field, key, _ in _SCENE_STACKS}
    bundle = SceneBundle(**stacks, cameras=header.cameras, patch=header.patch)
    validate_bundle(bundle)
    expect = (header.height, header.width, header.heads)
    if (bundle.height, bundle.width, bundle.heads) != expect:
        raise SceneFormatError(
            f"manifest height, width, heads {expect} != "
            f"tensors' {(bundle.height, bundle.width, bundle.heads)}")
    return bundle


def write_json(obj: dict, path: str | Path) -> None:
    """Write JSON with a stable key order and trailing newline, atomically."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))
