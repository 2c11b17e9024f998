"""Dense float32 tensor container and multi-view scene bundles.

Everything on disk goes through two formats:

* ``.dmt`` tensors -- magic ``DMT1``, u8 ndim, ndim little-endian u32
  extents, then the row-major little-endian float32 payload.  NaN-free by
  contract on both ends; infinities round-trip, but a scene bundle built
  from them fails :func:`validate_bundle`.
* binary PGM (P5) for masks.

A scene directory is self-describing: a ``scene.json`` manifest names every
tensor file plus the camera parameters, so a bundle can be diffed, copied,
or regenerated file by file.
"""

from __future__ import annotations

import json
import os
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


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write `chunks` to `path` through a per-process temporary file.

    Readers see either the old file or the complete new one, never a
    partial write, and writers in different processes never share a
    temporary.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# dmt tensor container
# ---------------------------------------------------------------------------

def write_tensor(tensor: np.ndarray, path: str | Path) -> None:
    """Write an array to `path` in the dmt container format.

    The array is converted to float32, C order.  Validation happens before
    the file is opened, so a rejected tensor never leaves a partial file.
    """
    arr = np.ascontiguousarray(tensor, dtype=np.float32)
    if arr.ndim < 1 or arr.ndim > MAX_NDIM:
        raise TensorFormatError(f"tensor rank {arr.ndim} outside 1..{MAX_NDIM}")
    if any(d <= 0 for d in arr.shape):
        raise TensorFormatError(f"zero extent in shape {arr.shape}")
    if np.isnan(arr).any():
        raise TensorFormatError("NaN in tensor payload")

    header = MAGIC + bytes([arr.ndim])
    header += np.asarray(arr.shape, dtype="<u4").tobytes()
    write_atomic(path, header, arr.astype("<f4", copy=False).tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a dmt tensor; exact inverse of :func:`write_tensor`."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 5:
        raise TensorFormatError(f"{path}: truncated header")
    ndim = raw[4]
    if ndim < 1 or ndim > MAX_NDIM:
        raise TensorFormatError(f"{path}: rank {ndim} outside 1..{MAX_NDIM}")
    if len(raw) < 5 + 4 * ndim:
        raise TensorFormatError(f"{path}: truncated extent table")
    shape = np.frombuffer(raw, dtype="<u4", count=ndim, offset=5)
    if (shape == 0).any():
        raise TensorFormatError(f"{path}: zero extent in {tuple(shape)}")
    count = int(np.prod(shape.astype(np.int64)))
    expect = 5 + 4 * ndim + 4 * count
    if len(raw) != expect:
        raise TensorFormatError(
            f"{path}: payload size {len(raw)} bytes, expected {expect}")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=5 + 4 * ndim)
    if np.isnan(data).any():
        raise TensorFormatError(f"{path}: NaN in payload")
    return data.reshape(tuple(int(d) for d in shape)).copy()


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def write_pgm(image: np.ndarray, path: str | Path) -> None:
    """Write a grayscale image or binary mask as 8-bit binary PGM.

    Boolean input maps to 0/255.
    """
    if image.dtype == bool:
        data = np.where(image, 255, 0).astype(np.uint8)
    else:
        data = np.asarray(image, dtype=np.uint8)
    if data.ndim != 2:
        raise TensorFormatError("PGM image must be 2-D")
    h, w = data.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii"), data.tobytes())


def _read_pnm_header(raw: bytes, magic: bytes) -> tuple[int, int, int]:
    """Parse a PNM header, returning (width, height, payload offset)."""
    if raw[:2] != magic:
        raise TensorFormatError(f"bad PNM magic {raw[:2]!r}, wanted {magic!r}")
    fields: list[int] = []
    i = 2
    while len(fields) < 3:
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if i < len(raw) and raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(raw) and not raw[j : j + 1].isspace():
            j += 1
        if j == i:
            raise TensorFormatError("truncated PNM header")
        fields.append(int(raw[i:j]))
        i = j
    if fields[2] != 255:
        raise TensorFormatError(f"unsupported PNM maxval {fields[2]}")
    return fields[0], fields[1], i + 1


def read_pgm(path: str | Path) -> np.ndarray:
    """Read an 8-bit binary PGM image as a uint8 array of shape (H, W)."""
    with open(path, "rb") as f:
        raw = f.read()
    w, h, off = _read_pnm_header(raw, b"P5")
    if len(raw) - off < w * h:
        raise TensorFormatError(f"{path}: truncated PGM payload")
    return np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=off).reshape(h, w).copy()


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
    gt_masks: np.ndarray | None = None       # (T, H, W) bool
    gt_cameras: list[CameraModel] | None = None

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
    for cams, name in ((bundle.cameras, "camera"),
                       (bundle.gt_cameras or [], "gt camera")):
        for f, cam in enumerate(cams):
            params = np.concatenate([[cam.fx, cam.fy, cam.cx, cam.cy],
                                     cam.R.ravel(), cam.t])
            if not np.isfinite(params).all():
                raise SceneFormatError(f"non-finite {name} {f} parameters")
    if (bundle.depths < 0).any():
        raise SceneFormatError("negative depth value")
    if bundle.images.min() < 0 or bundle.images.max() > 1:
        raise SceneFormatError("image values outside [0, 1]")
    if bundle.gt_masks is not None and bundle.gt_masks.shape != (t, h, w):
        raise SceneFormatError(f"gt mask shape {bundle.gt_masks.shape}")
    if bundle.gt_cameras is not None and len(bundle.gt_cameras) != t:
        raise SceneFormatError(f"{len(bundle.gt_cameras)} gt cameras for {t} frames")


def _camera_to_json(cam: CameraModel) -> dict:
    return {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "R": [float(v) for v in np.asarray(cam.R, dtype=np.float64).ravel()],
        "t": [float(v) for v in np.asarray(cam.t, dtype=np.float64).ravel()],
    }


def _camera_from_json(entry: dict) -> CameraModel:
    r = np.asarray(entry["R"], dtype=np.float64)
    if r.size != 9:
        raise SceneFormatError(f"camera R has {r.size} entries, wanted 9")
    t = np.asarray(entry["t"], dtype=np.float64)
    if t.size != 3:
        raise SceneFormatError(f"camera t has {t.size} entries, wanted 3")
    try:
        return CameraModel(
            fx=float(entry["fx"]), fy=float(entry["fy"]),
            cx=float(entry["cx"]), cy=float(entry["cy"]),
            R=r.reshape(3, 3), t=t,
        )
    except ValueError as exc:
        raise SceneFormatError(f"invalid camera: {exc}") from exc


def save_scene(bundle: SceneBundle, out_dir: str | Path) -> None:
    """Write a bundle into `out_dir` as tensors plus a scene.json manifest."""
    validate_bundle(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = bundle.frames

    manifest: dict = {
        "frames": t,
        "height": bundle.height,
        "width": bundle.width,
        "heads": bundle.heads,
        "patch": bundle.patch,
        "images": [], "depths": [], "confidences": [], "attentions": [],
        "cameras": [_camera_to_json(c) for c in bundle.cameras],
    }
    for f in range(t):
        names = (f"img_{f:04d}.dmt", f"depth_{f:04d}.dmt",
                 f"conf_{f:04d}.dmt", f"attn_{f:04d}.dmt")
        write_tensor(bundle.images[f], out / names[0])
        write_tensor(bundle.depths[f], out / names[1])
        write_tensor(bundle.confidence_logits[f], out / names[2])
        write_tensor(bundle.attention[f], out / names[3])
        manifest["images"].append(names[0])
        manifest["depths"].append(names[1])
        manifest["confidences"].append(names[2])
        manifest["attentions"].append(names[3])

    if bundle.gt_masks is not None:
        manifest["gt_masks"] = []
        for f in range(t):
            name = f"gt_mask_{f:04d}.pgm"
            write_pgm(bundle.gt_masks[f].astype(bool), out / name)
            manifest["gt_masks"].append(name)
    if bundle.gt_cameras is not None:
        manifest["gt_cameras"] = [_camera_to_json(c) for c in bundle.gt_cameras]

    write_json(manifest, out / "scene.json")


def load_scene(scene_dir: str | Path) -> SceneBundle:
    """Load and fully validate a scene bundle from a directory."""
    root = Path(scene_dir)
    manifest_path = root / "scene.json"
    if not manifest_path.is_file():
        raise SceneFormatError(f"missing manifest {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)

    for key in ("frames", "height", "width", "heads", "patch",
                "images", "depths", "confidences", "attentions", "cameras"):
        if key not in manifest:
            raise SceneFormatError(f"manifest missing key {key!r}")
    t = int(manifest["frames"])
    for key in ("images", "depths", "confidences", "attentions"):
        if len(manifest[key]) != t:
            raise SceneFormatError(f"{len(manifest[key])} {key} for {t} frames")

    def _stack(names: list[str]) -> np.ndarray:
        tensors = []
        for name in names:
            p = root / name
            if not p.is_file():
                raise SceneFormatError(f"missing tensor file {p}")
            tensors.append(read_tensor(p))
        first = tensors[0].shape
        for name, arr in zip(names, tensors):
            if arr.shape != first:
                raise SceneFormatError(
                    f"{name} shape {arr.shape} != {first} of {names[0]}")
        return np.stack(tensors)

    images = _stack(manifest["images"])
    depths = _stack(manifest["depths"])
    confidences = _stack(manifest["confidences"])
    attention = _stack(manifest["attentions"])
    cameras = [_camera_from_json(c) for c in manifest["cameras"]]

    gt_masks = None
    if "gt_masks" in manifest:
        stack = []
        for name in manifest["gt_masks"]:
            p = root / name
            if not p.is_file():
                raise SceneFormatError(f"missing gt mask {p}")
            stack.append(read_pgm(p) > 127)
        gt_masks = np.stack(stack)
    gt_cameras = None
    if "gt_cameras" in manifest:
        gt_cameras = [_camera_from_json(c) for c in manifest["gt_cameras"]]

    bundle = SceneBundle(
        images=images, depths=depths, confidence_logits=confidences,
        attention=attention, cameras=cameras, patch=int(manifest["patch"]),
        gt_masks=gt_masks, gt_cameras=gt_cameras,
    )
    validate_bundle(bundle)
    return bundle


def write_json(obj: dict, path: str | Path) -> None:
    """Write JSON with a stable key order and trailing newline, atomically."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))
