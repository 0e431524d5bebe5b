"""The board's root filesystem (the SD-card image contents).

The PetaLinux image on the ZCU104's SD card carries the Vitis AI
runtime and the model library under
``/usr/share/vitis_ai_library/models/``.  Two facts about that tree
matter to the attack:

- the victim application *reads the xmodel file from disk into its
  heap* — that is how the model-name strings end up in DRAM; and
- the library is **world-readable**, which is what lets the adversary
  profile the exact same models offline (adversary's access, paper
  §II).

The filesystem is a simple in-memory tree with owner/world-readable
bits — enough to express both facts and to let hardened configurations
experiment with restricting library access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OsError, PermissionDeniedError
from repro.petalinux.users import User


class FileNotFoundOsError(OsError):
    """The path does not exist (``ENOENT``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(f"no such file or directory: {path}")


def normalize_path(path: str) -> str:
    """Collapse a POSIX path to its canonical absolute form.

    Rejects relative paths — every access on the board uses absolute
    paths (the shell has no real CWD in the simulation).
    """
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute, got {path!r}")
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


@dataclass
class FileNode:
    """One regular file."""

    content: bytes
    owner_uid: int = 0
    world_readable: bool = True

    def readable_by(self, user: User) -> bool:
        """Whether *user* may read this file."""
        return self.world_readable or user.is_root or user.uid == self.owner_uid


@dataclass
class RootFs:
    """In-memory file tree: path -> :class:`FileNode`.

    Directories are implicit (a path is a directory if any file lives
    under it), which matches how little the attack cares about
    directory metadata.
    """

    _files: dict[str, FileNode] = field(default_factory=dict)

    def write_file(
        self,
        path: str,
        content: bytes,
        owner_uid: int = 0,
        world_readable: bool = True,
    ) -> None:
        """Create or replace a file."""
        self._files[normalize_path(path)] = FileNode(
            content=bytes(content),
            owner_uid=owner_uid,
            world_readable=world_readable,
        )

    def read_file(self, path: str, caller: User) -> bytes:
        """Read a file, enforcing the readable bit."""
        node = self._lookup(path)
        if not node.readable_by(caller):
            raise PermissionDeniedError(
                f"user {caller.name!r} may not read {path}"
            )
        return node.content

    def _lookup(self, path: str) -> FileNode:
        normalized = normalize_path(path)
        try:
            return self._files[normalized]
        except KeyError:
            raise FileNotFoundOsError(normalized) from None

    def exists(self, path: str) -> bool:
        """Whether *path* is a file or an (implicit) directory."""
        normalized = normalize_path(path)
        if normalized in self._files:
            return True
        prefix = normalized.rstrip("/") + "/"
        return any(name.startswith(prefix) for name in self._files)

    def is_dir(self, path: str) -> bool:
        """Whether *path* is an implicit directory."""
        return self.exists(path) and normalize_path(path) not in self._files

    def list_dir(self, path: str) -> list[str]:
        """Immediate children names of a directory, sorted."""
        normalized = normalize_path(path)
        if not self.is_dir(normalized) and normalized != "/":
            raise FileNotFoundOsError(normalized)
        prefix = normalized.rstrip("/") + "/"
        children = set()
        for name in self._files:
            if name.startswith(prefix):
                remainder = name[len(prefix):]
                children.add(remainder.split("/", 1)[0])
        return sorted(children)

    def file_size(self, path: str) -> int:
        """Size in bytes of a regular file."""
        return len(self._lookup(path).content)

    def set_world_readable(self, path: str, world_readable: bool) -> None:
        """chmod the file's world bit (hardening experiments)."""
        self._lookup(path).world_readable = world_readable

    def file_count(self) -> int:
        """Number of regular files in the tree."""
        return len(self._files)


def install_vitis_ai(rootfs: RootFs, input_hw: int = 32) -> list[str]:
    """Install the Vitis AI runtime and the model library on *rootfs*.

    Mirrors the paper's setup step 3 ("we installed the Vitis AI
    runtime on the target board, which provides various pre-built
    machine learning models").  Returns the installed xmodel paths.
    Every board installs the same files, so their bytes come from the
    model memo (:func:`repro.vitis.memo.installed_xmodel`).
    """
    from repro.vitis.memo import installed_xmodel
    from repro.vitis.zoo import MODEL_NAMES, model_install_path

    rootfs.write_file(
        "/usr/lib/libvart-runner.so.3.5", b"\x7fELF\x02\x01\x01" + b"\x00" * 57
    )
    rootfs.write_file(
        "/usr/lib/libxir.so.3.5", b"\x7fELF\x02\x01\x01" + b"\x00" * 57
    )
    installed = []
    for name in MODEL_NAMES:
        path = model_install_path(name)
        rootfs.write_file(path, installed_xmodel(name, input_hw))
        installed.append(path)
    return installed
