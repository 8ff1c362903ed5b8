"""Message template catalog for the synthetic Cray log generator.

Every template has a *static* part (the constant message subphrase the
paper's phrase analysis extracts — Table 2) and *dynamic* fields (error
identifiers, addresses, PIDs, ...) that vary per occurrence.  Templates
are written with ``{kind}`` placeholders; :meth:`MessageTemplate.fill`
substitutes concrete values drawn from a random generator, and
:meth:`MessageTemplate.static_text` yields the masked form used by tests
and by the ground-truth join.

The catalog's message texts are taken from the snippets published in the
paper's own Tables 2, 3, 8 and 9 (LustreError, LNet, hwerr, DVS, slurm,
MCE, NMI, kernel panic, ...) plus generic Linux console noise, so the
mined templates and labels line up with the paper's phrase lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Sequence

import numpy as np

from ..errors import LogGenerationError

__all__ = [
    "FieldKind",
    "FIELD_GENERATORS",
    "MessageTemplate",
    "TemplateCatalog",
    "default_catalog",
    "SAFE",
    "UNKNOWN",
    "ERROR",
]

# Intrinsic label hints (ground truth for the Table 3 categorization).
SAFE = "safe"
UNKNOWN = "unknown"
ERROR = "error"

_PLACEHOLDER_RE = re.compile(r"\{([a-z0-9_]+)\}")

FieldKind = str


def _hex32(rng: np.random.Generator) -> str:
    return f"0x{int(rng.integers(0, 1 << 32)):x}"


def _hex16(rng: np.random.Generator) -> str:
    return f"0x{int(rng.integers(0, 1 << 16)):x}"


def _smallint(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 64)))


def _bigint(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1000, 10_000_000)))


def _pid(rng: np.random.Generator) -> str:
    return str(int(rng.integers(100, 65536)))


def _jobid(rng: np.random.Generator) -> str:
    return str(int(rng.integers(100000, 999999)))


def _ip(rng: np.random.Generator) -> str:
    a, b = rng.integers(1, 255, size=2)
    return f"10.128.{int(a)}.{int(b)}"


def _nid(rng: np.random.Generator) -> str:
    return f"nid{int(rng.integers(0, 8192)):05d}"


def _path(rng: np.random.Generator) -> str:
    names = ("lus", "scratch", "proc", "var", "opt", "dsl", "ufs")
    a = names[int(rng.integers(0, len(names)))]
    return f"/{a}/snx{int(rng.integers(1, 9))}"


def _devid(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(0, 256)):02x}:{int(rng.integers(0, 32)):02x}.{int(rng.integers(0, 8))}"


def _exitcode(rng: np.random.Generator) -> str:
    return str(int(rng.choice([1, 2, 9, 11, 127, 137, 139, 255])))


def _timestamp_tag(rng: np.random.Generator) -> str:
    return f"2014{int(rng.integers(1, 13)):02d}{int(rng.integers(1, 29)):02d}t{int(rng.integers(0, 240000)):06d}"


def _lustre_tgt(rng: np.random.Generator) -> str:
    return f"snx11{int(rng.integers(0, 99)):02d}-OST{int(rng.integers(0, 64)):04d}"


def _cpuid(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 48)))


def _bank(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 24)))


def _page(rng: np.random.Generator) -> str:
    # Force a high bit so the address is always >= 9 hex digits; the
    # tokenizer's bare-hex rule then masks it deterministically.
    return f"{int(rng.integers(0, 1 << 36)) | (1 << 35):x}"


FIELD_GENERATORS: Dict[FieldKind, Callable[[np.random.Generator], str]] = {
    "hex32": _hex32,
    "hex16": _hex16,
    "smallint": _smallint,
    "bigint": _bigint,
    "pid": _pid,
    "jobid": _jobid,
    "ip": _ip,
    "nid": _nid,
    "path": _path,
    "devid": _devid,
    "exitcode": _exitcode,
    "tstag": _timestamp_tag,
    "lustre_tgt": _lustre_tgt,
    "cpuid": _cpuid,
    "bank": _bank,
    "page": _page,
}


@dataclass(frozen=True)
class MessageTemplate:
    """One log message family: static text plus dynamic placeholders.

    Attributes
    ----------
    key:
        Short unique identifier used by fault-chain definitions.
    facility:
        Logging facility the message is emitted under.
    text:
        Message text with ``{kind}`` placeholders for dynamic fields.
    label:
        Ground-truth Table-3 category: ``safe`` / ``unknown`` / ``error``.
    terminal:
        True for messages that mark a node going down (the failure-chain
        anchor, e.g. ``cb_node_unavailable``).
    weight:
        Relative frequency among background noise (safe templates only).
    """

    key: str
    facility: str
    text: str
    label: str = SAFE
    terminal: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.label not in (SAFE, UNKNOWN, ERROR):
            raise LogGenerationError(f"bad label {self.label!r} for {self.key}")
        if self.weight <= 0:
            raise LogGenerationError(f"weight must be > 0 for {self.key}")
        for kind in self.field_kinds():
            if kind not in FIELD_GENERATORS:
                raise LogGenerationError(
                    f"unknown field kind {kind!r} in template {self.key}"
                )
        if self.terminal and self.label != ERROR:
            raise LogGenerationError(
                f"terminal template {self.key} must carry the error label"
            )

    def field_kinds(self) -> tuple[str, ...]:
        """Placeholder kinds appearing in :attr:`text`, in order."""
        return tuple(_PLACEHOLDER_RE.findall(self.text))

    def fill(self, rng: np.random.Generator) -> str:
        """Render the message with concrete dynamic-field values."""
        return _PLACEHOLDER_RE.sub(
            lambda m: FIELD_GENERATORS[m.group(1)](rng), self.text
        )

    def static_text(self, mask: str = "<*>") -> str:
        """Render the static form with placeholders replaced by *mask*."""
        return _PLACEHOLDER_RE.sub(mask, self.text)


class TemplateCatalog:
    """Indexed collection of :class:`MessageTemplate` objects."""

    def __init__(self, templates: Sequence[MessageTemplate]):
        self._by_key: Dict[str, MessageTemplate] = {}
        for t in templates:
            if t.key in self._by_key:
                raise LogGenerationError(f"duplicate template key {t.key!r}")
            self._by_key[t.key] = t
        self._safe = [t for t in templates if t.label == SAFE]
        weights = np.array([t.weight for t in self._safe], dtype=np.float64)
        self._safe_probs = weights / weights.sum() if len(weights) else weights

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[MessageTemplate]:
        return iter(self._by_key.values())

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def get(self, key: str) -> MessageTemplate:
        """The template with the given key; raises if absent."""
        try:
            return self._by_key[key]
        except KeyError:
            raise LogGenerationError(f"no such template: {key!r}") from None

    def keys(self) -> tuple[str, ...]:
        """All template keys, in insertion order."""
        return tuple(self._by_key)

    def by_label(self, label: str) -> list[MessageTemplate]:
        """Templates carrying the given ground-truth label."""
        return [t for t in self._by_key.values() if t.label == label]

    def terminals(self) -> list[MessageTemplate]:
        """Templates that mark a node going down."""
        return [t for t in self._by_key.values() if t.terminal]

    def sample_safe(self, rng: np.random.Generator) -> MessageTemplate:
        """Draw one benign background template by weight."""
        if not self._safe:
            raise LogGenerationError("catalog has no safe templates")
        i = rng.choice(len(self._safe), p=self._safe_probs)
        return self._safe[int(i)]


def _safe_templates() -> list[MessageTemplate]:
    """Benign console noise (Table 3 column 1 plus generic Linux chatter)."""
    mk = MessageTemplate
    return [
        mk("mount_nid", "kernel", "Mounting NID specific {path}", SAFE, weight=4),
        mk("apic_timer", "kernel", "cpu {cpuid} apic_timer_irqs {bigint}", SAFE, weight=6),
        mk("set_flag", "rca", "Setting flag {hex16}", SAFE, weight=3),
        mk("wait4boot", "bootd", "Wait4Boot", SAFE, weight=2),
        mk("ec_node_info", "rca", "Sending ec node info with boot code {smallint}", SAFE, weight=2),
        mk("sysctl_apply", "init", "Running sysctl, using values from /etc/sysctl.conf", SAFE, weight=2),
        mk("lnet_quiesce", "kernel", "LNet: hardware quiesce {tstag}, All threads awake", SAFE, weight=3),
        mk("ntp_sync", "ntpd", "synchronized to {ip}, stratum 2", SAFE, weight=3),
        mk("nscd_reconnect", "nscd", "nss_ldap reconnected to LDAP server", SAFE, weight=2),
        mk("cron_session", "crond", "session opened for user root by (uid={smallint})", SAFE, weight=4),
        mk("sshd_accept", "sshd", "Accepted publickey for root from {ip} port {pid}", SAFE, weight=2),
        mk("lustre_connect", "kernel", "Lustre: {lustre_tgt} connected to {ip}", SAFE, weight=4),
        mk("dvs_mount", "kernel", "DVS: mounted {path} on client", SAFE, weight=2),
        mk("alps_placement", "apsched", "placeApp message for apid {jobid}", SAFE, weight=3),
        mk("rca_heartbeat_ok", "rca", "ec_node_info heartbeat ok seq {bigint}", SAFE, weight=5),
        mk("thermal_ok", "bwtd", "cabinet thermal reading nominal {smallint} C", SAFE, weight=2),
        mk("nhc_pass", "node_health", "<node_health> all tests passed in {smallint} s", SAFE, weight=3),
        mk("kernel_audit", "kernel", "audit: backlog limit {bigint}", SAFE, weight=1),
        mk("ib_portup", "kernel", "ib0: link up, port active speed {smallint} Gb", SAFE, weight=1),
        mk("memory_scrub", "kernel", "EDAC MC0: scrub rate set to {bigint}", SAFE, weight=1),
        mk("console_login", "login", "root login on ttyS0", SAFE, weight=1),
        mk("munge_ok", "munged", "authentication credential decoded for uid {smallint}", SAFE, weight=1),
    ]


def _unknown_templates() -> list[MessageTemplate]:
    """Ambiguous phrases (Table 3 column 2, Table 8) — may or may not be
    part of a failure chain."""
    mk = MessageTemplate
    U = UNKNOWN
    return [
        mk("lnet_no_traffic", "kernel", "LNet: No gnilnd traffic received from {nid}", U),
        mk("oom_invoked", "kernel", "python invoked oom killer: gfp_mask={hex32}, order={smallint}", U),
        mk("gnilnd_reaper", "kernel", "LNet: {bigint} gnilnd:kgnilnd reaper dgram check {hex16}", U),
        mk("pcie_corrected", "kernel", "PCIe Bus Error: severity=Corrected, type=Physical Layer, id={devid}", U),
        mk("err_type_sev", "hwerrlogd", "ERROR: Type:2; Severity:80; id {hex16}", U),
        mk("lustre_error", "kernel", "LustreError: {bigint}:0:(client.c:{bigint}) {lustre_tgt} operation failed", U),
        mk("oom_killed_proc", "kernel", "Out of memory: Killed process {pid} (aprun)", U),
        mk("lnet_critical_hw", "kernel", "Lnet: Critical hardware error: {hex32}", U),
        mk("slurm_load_part", "slurmd", "Slurm load partitions error: Unable to contact slurm controller", U),
        mk("hwerr_aer_tlp", "hwerrlogd", "hwerr[{pid}]: Correctable AER_BAD_TLP Error {hex32}", U),
        mk("llmrd_shutdown", "llmrd", "Sent shutdown to llmrd at process {pid}", U),
        mk("aer_multi_corr", "kernel", "AER: Multiple corrected error recvd id {devid}", U),
        mk("trap_invalid", "kernel", "Trap invalid code {smallint} Error {hex16}", U),
        mk("modprobe_fatal", "modprobe", "modprobe: Fatal: Module {path} not found {smallint}", U),
        mk("nhc_exitcode", "node_health", "<node_health> {pid} Warning: program {path} returned with exit code {exitcode}", U),
        mk("dvs_verify_fs", "kernel", "DVS: Verify Filesystem {path}", U),
        mk("kernel_null_deref", "kernel", "BUG: unable to handle kernel NULL pointer dereference at {hex32}", U),
        mk("mce_logged", "kernel", "H/W Error: MCE Logged bank {bank} status {hex32}", U),
        mk("corr_mem_page", "kernel", "Corrected Memory Errors on Page {page}", U),
        mk("mce_notify_irq", "kernel", "mce_notify_irq: {smallint} messages suppressed", U),
        mk("hwerr_ssid_rsp", "hwerrlogd", "hwerr {hex16}:ssid rsp a status msg protocol err error :Info1={hex32}: Info2={hex16}: Info3={smallint}", U),
        mk("dvs_no_servers", "kernel", "DVS: {path} no servers functioning properly", U),
        mk("gsockets_critical", "kernel", "[Gsockets] debug [0]: critical h/w error {hex32}", U),
        mk("startproc_ldap", "startproc", "Startproc: nss_ldap: failed to bind to LDAP server {ip}", U),
        mk("slurmd_stopped", "slurmd", "Slurmd Stopped on node {nid}", U),
        mk("corr_dimm", "kernel", "Corrected DIMM Memory Errors dimm {smallint}", U),
        mk("lustre_skipped", "kernel", "LustreError: Skipped {bigint} previous similar messages", U),
        mk("lustre_binary_skip", "kernel", "Lustre: {lustre_tgt} binary skipped {bigint}", U),
        mk("lnet_hw_quiesce_err", "kernel", "Lnet: H/W Quiesce pending err {hex16}", U),
        mk("nhc_failures", "node_health", "<node_health> {smallint} failures: suspect node", U),
        mk("tests_failed", "node_health", "The following tests {path} failed", U),
        mk("hwerr_rsp", "hwerrlogd", "hwerr[{pid}]: RSP {hex32} command queue stall", U),
        mk("mce_hw_error_run", "kernel", "[Hardware Error]: Run the above through 'mcelog --ascii'", U),
        mk("mce_cpu_exception", "kernel", "CPU {cpuid}: Machine Check Exception: {hex16} Bank {bank}: {hex32}", U),
        mk("mce_rip_inexact", "kernel", "[Hardware Error]: RIP !INEXACT! 10:<{hex32}> aprun", U),
        mk("swap_insufficient", "kernel", "lowmem_reserve[]: {smallint} {smallint} {bigint}", U),
        mk("ipogif_timeout", "kernel", "ipogif0: transmit timed out, resetting {smallint}", U),
        mk("ec_hss_event", "erd", "ec_hss_general_avail event {hex16} processed late", U),
        mk("apinit_flush", "apinit", "apinit: flushing {smallint} pending launch messages", U),
        mk("seg_violation", "kernel", "aprun[{pid}]: segfault at {hex32} ip {hex32} sp {hex32} error {smallint}", U),
        mk("page_alloc_fail", "kernel", "aprun: page allocation failure: order:{smallint}, mode:{hex16}", U),
    ]


def _error_templates() -> list[MessageTemplate]:
    """Strong anomaly indicators and terminal messages (Table 3 column 3)."""
    mk = MessageTemplate
    E = ERROR
    return [
        mk("node_down_warn", "erd", "WARNING: Node {nid} is down", E),
        mk("debug_nmi", "kernel", "Debug NMI detected on cpu {cpuid}", E),
        mk("kernel_panic", "kernel", "Kernel panic - not syncing: Fatal Machine check", E),
        mk("call_trace", "kernel", "Call Trace: <{hex32}> panic+{hex16}/{hex16}", E),
        mk("stack_trace", "kernel", "Stack: {hex32} {hex32} {hex32}", E),
        mk("stop_nmi", "kernel", "Stop NMI detected on cpu {cpuid}", E),
        mk("page_fault_oops", "kernel", "Oops: {hex16} [#1] SMP page fault", E),
        mk("heartbeat_fault", "erd", "ec_node_failed: node heartbeat fault {nid}", E),
        mk("hsn_link_failed", "erd", "HSN ASIC link failed lcb {devid}", E),
        mk("uncorr_mce", "kernel", "[Hardware Error]: Uncorrected MCE bank {bank} status {hex32}", E),
        mk("cpu_stall", "kernel", "INFO: rcu_sched self-detected stall on CPU {cpuid}", E),
        mk("lbug", "kernel", "LustreError: LBUG - assertion failed at {path}", E),
        mk("slurm_kill_task", "slurmd", "error: *** JOB {jobid} CANCELLED DUE TO NODE FAILURE ***", E),
        mk("system_halted", "kernel", "System: halted", E),
        # Terminal messages — the anchors of failure chains.
        mk("cb_node_unavailable", "erd", "cb_node_unavailable", E, terminal=True),
        mk("node_unavail_shutdown", "erd", "ec_console_log: node shutdown in progress {nid}", E, terminal=True),
    ]


def default_catalog() -> TemplateCatalog:
    """The standard ~80-template catalog used by all presets and tests."""
    return TemplateCatalog(_safe_templates() + _unknown_templates() + _error_templates())
