"""The PetaLinux kernel twin.

One object owns the board: it allocates physical frames, spawns and
reaps processes, and applies (or, by default, fails to apply) the three
protections whose absence the paper exploits:

1. ``sanitize_policy`` — what happens to a dead process's frames
   (default: nothing; the residue stays in DRAM).
2. ``pagemap_world_readable`` / ``procfs_world_readable`` — whether a
   different user may read a process's pagemap and maps (default: yes;
   this is the debugger-from-another-user-space hole).
3. ``randomization`` — physical/virtual layout randomization
   (default: off; layouts are deterministic and profileable).

The default :class:`KernelConfig` is the vulnerable configuration the
paper measured; each experiment flips exactly the knob it studies.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.errors import NoSuchProcessError, ProcessStateError
from repro.hw.dpu import DpuCore
from repro.hw.dram import PAGE_SIZE
from repro.hw.soc import ZynqMpSoC
from repro.mmu.address_space import AddressSpace
from repro.mmu.frame_alloc import FrameAllocator, ReusePolicy
from repro.mmu.pagemap import PagemapEntry, absent_entry
from repro.mmu.paging import PAGE_SHIFT
from repro.petalinux.aslr import LayoutRandomization
from repro.petalinux.xen import XenDeployment
from repro.petalinux.process import (
    DEFAULT_HEAP_BASE,
    HeapArena,
    Process,
    ProcessState,
    ProgramImage,
    layout_process_memory,
)
from repro.petalinux.sanitizer import SanitizePolicy, Sanitizer
from repro.petalinux.users import ROOT, Terminal, User

DEFAULT_RESERVED_FRAMES = 0x60000
"""Frames below this index are kernel-reserved; user allocations start
at physical address 0x6000_0000, putting them in the same PA range the
paper's devmem reads show (0x61c6_d730 and friends)."""

BOOT_MINUTES = 3 * 60 + 51
"""Boot wall-clock (03:51), matching the kworker STIME in Fig. 5."""


@dataclass(frozen=True)
class KernelConfig:
    """Security-relevant kernel policy.  Defaults = the vulnerable board."""

    sanitize_policy: SanitizePolicy = SanitizePolicy.NONE
    scrub_rate_per_tick: int = 64
    pagemap_world_readable: bool = True
    procfs_world_readable: bool = True
    devmem_unrestricted: bool = True
    randomization: LayoutRandomization = field(default_factory=LayoutRandomization)
    allocator_policy: ReusePolicy = ReusePolicy.LIFO
    reserved_frames: int = DEFAULT_RESERVED_FRAMES
    pid_start: int = 1385
    xen: XenDeployment | None = None
    """Optional hypervisor deployment.  ``None`` = bare PetaLinux; a
    deployment with ``dev_mem_passthrough=True`` (the PetaLinux user
    default) partitions memory per domain but enforces nothing on
    /dev/mem — the configuration hole the paper describes."""

    def hardened(self) -> "KernelConfig":
        """The fully-defended variant (every paper hole closed)."""
        return KernelConfig(
            sanitize_policy=SanitizePolicy.ZERO_ON_FREE,
            scrub_rate_per_tick=self.scrub_rate_per_tick,
            pagemap_world_readable=False,
            procfs_world_readable=False,
            devmem_unrestricted=False,
            randomization=LayoutRandomization(physical=True, virtual=True),
            allocator_policy=ReusePolicy.RANDOM,
            reserved_frames=self.reserved_frames,
            pid_start=self.pid_start,
        )


class PetaLinuxKernel:
    """The booted OS instance on one :class:`~repro.hw.soc.ZynqMpSoC`."""

    def __init__(self, soc: ZynqMpSoC, config: KernelConfig | None = None) -> None:
        self.soc = soc
        self.config = config or KernelConfig()
        allocator_policy = self.config.allocator_policy
        if self.config.randomization.physical:
            allocator_policy = ReusePolicy.RANDOM
        # Under Xen, each guest domain owns a disjoint physical window
        # with its own allocator (how domain memory really works); the
        # global allocator then only serves dom0 / kernel threads, and
        # starts above the domain windows so it never crosses them.
        global_base = self.config.reserved_frames
        self._domain_allocators: dict[str, FrameAllocator] = {}
        if self.config.xen is not None:
            for domain in self.config.xen.domains:
                self._domain_allocators[domain.name] = FrameAllocator(
                    total_frames=domain.frame_end,
                    base_frame=domain.frame_start,
                    policy=allocator_policy,
                    seed=self.config.randomization.seed,
                )
                global_base = max(global_base, domain.frame_end)
        self.allocator = FrameAllocator(
            total_frames=soc.dram.capacity // PAGE_SIZE,
            base_frame=global_base,
            policy=allocator_policy,
            seed=self.config.randomization.seed,
        )
        self.sanitizer = Sanitizer(
            dram=soc.dram,
            policy=self.config.sanitize_policy,
            scrub_rate_per_tick=self.config.scrub_rate_per_tick,
        )
        self.dpu = DpuCore(soc)
        from repro.petalinux.rootfs import RootFs

        self.rootfs = RootFs()
        self.clock_ticks = 0
        # Host seconds spent in exit_process, sanitizing included.
        self.teardown_seconds = 0.0
        self._processes: dict[int, Process] = {}
        self._reaped: dict[int, Process] = {}
        self._pids = itertools.count(self.config.pid_start)
        self._boot()

    # -- boot -------------------------------------------------------------

    def _boot(self) -> None:
        """Create init, kthreadd and the standing kernel workers."""
        self._add_static_process(1, 0, ROOT, None, ["/sbin/init"])
        self._add_static_process(2, 0, ROOT, None, ["[kthreadd]"])
        worker_pid = self.next_pid()
        self._add_static_process(worker_pid, 2, ROOT, None, ["[kworker/3:0-events]"])

    def _add_static_process(
        self,
        pid: int,
        ppid: int,
        user: User,
        terminal: Terminal | None,
        cmdline: list[str],
    ) -> Process:
        process = Process(
            pid=pid,
            ppid=ppid,
            user=user,
            terminal=terminal,
            cmdline=cmdline,
            address_space=self._new_address_space(pid),
            start_time=self.wall_clock(),
        )
        self._processes[pid] = process
        return process

    def _allocator_for(self, user: User) -> FrameAllocator:
        """The frame allocator a process of *user* draws from."""
        if self.config.xen is not None:
            domain = self.config.xen.domain_of_user(user)
            if domain is not None:
                return self._domain_allocators[domain.name]
        return self.allocator

    def _new_address_space(self, pid: int, user: User | None = None) -> AddressSpace:
        allocator = self._allocator_for(user) if user is not None else self.allocator
        return AddressSpace(allocator=allocator, memory=self.soc.dram, owner=pid)

    # -- clock ------------------------------------------------------------

    def wall_clock(self) -> str:
        """HH:MM string for the STIME column (1 tick == 1 second)."""
        minutes = (BOOT_MINUTES + self.clock_ticks // 60) % (24 * 60)
        return f"{minutes // 60:02d}:{minutes % 60:02d}"

    def tick(self, ticks: int = 1) -> None:
        """Advance time: scheduler accounting plus the scrubber daemon."""
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        for _ in range(ticks):
            self.clock_ticks += 1
            self.sanitizer.tick()
            for process in self._processes.values():
                if process.state is ProcessState.RUNNING and process.pid > 2:
                    process.cpu_seconds += 1

    # -- process lifecycle ---------------------------------------------------

    def next_pid(self) -> int:
        """Allocate the next pid."""
        return next(self._pids)

    def spawn(
        self,
        cmdline: list[str],
        user: User,
        terminal: Terminal | None = None,
        image: ProgramImage | None = None,
        ppid: int = 1,
        heap_base: int | None = None,
        device_paths: tuple[str, ...] = (),
    ) -> Process:
        """Create a user process with the standard memory layout.

        Virtual ASLR (when enabled) slides the heap base; the maps file
        reports the slid address, so the paper attack — which reads the
        base from maps — is unaffected, exactly as on the board.
        """
        if not cmdline:
            raise ValueError("cmdline must be non-empty")
        pid = self.next_pid()
        base = heap_base if heap_base is not None else DEFAULT_HEAP_BASE
        base += self.config.randomization.heap_slide(pid)
        address_space = self._new_address_space(pid, user=user)
        program = image or ProgramImage(path=cmdline[0])
        layout_process_memory(
            address_space, program, heap_base=base, device_paths=device_paths
        )
        process = Process(
            pid=pid,
            ppid=ppid,
            user=user,
            terminal=terminal,
            cmdline=list(cmdline),
            address_space=address_space,
            start_time=self.wall_clock(),
        )
        process.heap_arena = HeapArena(process)
        self._processes[pid] = process
        return process

    def exit_process(self, pid: int, exit_code: int = 0) -> None:
        """Terminate *pid*: teardown, sanitize (per policy), free frames.

        After this call the pid is gone from the process table — it no
        longer shows in ``ps -ef`` (paper Fig. 9) — but its frames'
        contents survive in DRAM unless the sanitizer scrubbed them.
        """
        started = time.perf_counter()
        process = self.find_process(pid)
        if not process.is_alive:
            raise ProcessStateError(f"pid {pid} already exited")
        frames = process.address_space.teardown()
        self.sanitizer.on_free(frames)
        # Frames go back to the allocator they came from (the owning
        # domain's, under Xen).
        process.address_space.allocator.free(frames)
        process.state = ProcessState.DEAD
        process.exit_code = exit_code
        # The arena points back at its process; dropping it here breaks
        # that cycle, so a reaped process (and, with the kernel, the
        # board's DRAM) goes by reference counting, not the collector.
        process.heap_arena = None
        del self._processes[pid]
        self._reaped[pid] = process
        self.teardown_seconds += time.perf_counter() - started

    def kill(self, pid: int) -> None:
        """SIGKILL semantics: immediate exit with code 137."""
        self.exit_process(pid, exit_code=137)

    # -- queries -----------------------------------------------------------

    def processes(self) -> list[Process]:
        """All live processes, ascending pid."""
        return [self._processes[pid] for pid in sorted(self._processes)]

    def find_process(self, pid: int) -> Process:
        """The live process with *pid*; raises ``NoSuchProcessError``."""
        try:
            return self._processes[pid]
        except KeyError:
            raise NoSuchProcessError(pid) from None

    def has_process(self, pid: int) -> bool:
        """Whether *pid* is currently in the process table."""
        return pid in self._processes

    def reaped_process(self, pid: int) -> Process | None:
        """Diagnostic: the Process object of an exited pid.

        Ground truth for the evaluation metrics only — nothing
        OS-visible exposes this (the whole point of the attack is that
        the attacker must recover such information from DRAM residue).
        """
        return self._reaped.get(pid)

    # -- pagemap backend -----------------------------------------------------

    def pagemap_entry(self, pid: int, vpn: int) -> PagemapEntry:
        """The pagemap entry for one virtual page of a live process.

        Frame numbers are converted to *global* PFNs through the SoC
        address map, so ``PFN << 12`` is directly a devmem-able
        physical address — the property the attack's step 2 relies on.
        """
        process = self.find_process(pid)
        pte = process.address_space.page_table.lookup(vpn)
        if pte is None:
            return absent_entry()
        physical = self.soc.dram_frame_to_physical(pte.frame)
        return PagemapEntry(present=True, pfn=physical >> PAGE_SHIFT, exclusive=True)
