// Calibrated cost table for the simulated Accent/Perq testbed.
//
// Every constant is fitted against a measurement the paper publishes
// (provenance in the comment). The evaluation's *shape* — who wins, by what
// factor, where the crossover falls — is what these constants must preserve;
// absolute times are testbed artefacts of 1987 Perq hardware.
//
// Anchor measurements from the paper:
//   - 512-byte pages (section 2.1).
//   - Local disk fault service: 40.8 ms; remote imaginary fault: 115 ms
//     (section 4.3.3).
//   - Core context message transfer: ~1 s in all cases (section 4.3.2).
//   - Pure-IOU RIMAS transfer: 0.15-0.21 s (Table 4-5).
//   - Pure-copy bulk throughput ~15 KB/s end to end (Table 4-5: e.g.
//     Minprog 142 KB in 8.5 s, Lisp-T 2.2 MB in 157 s) — dominated by
//     NetMsgServer per-byte handling on both Perqs, not by the 10 Mbit wire.
//   - Excision/insertion timings (Table 4-4, section 4.3.1).
#ifndef SRC_HOST_COSTS_H_
#define SRC_HOST_COSTS_H_

#include "src/base/types.h"

namespace accent {

struct CostTable {
  // --- Virtual memory / pager -------------------------------------------
  // FillZero fault: reserve a frame, zero it, map it. Never touches disk.
  SimDuration pager_fillzero_fault = Ms(8);
  // CPU part of a disk fault (lookup, mapping); the disk adds its latency.
  // 15 ms + 25.8 ms disk read ≈ the paper's 40.8 ms local fault.
  SimDuration pager_disk_fault_cpu = Ms(15);
  // CPU part of an imaginary fault at the faulting site (request
  // construction, reply mapping). The rest of the paper's 115 ms emerges
  // from IPC + NetMsgServer + wire costs.
  SimDuration pager_imag_fault_cpu = Ms(35);
  // Mapping one additional (e.g. prefetched) page into a process map.
  SimDuration pager_map_extra_page = Us(400);
  // Work a backing process does to interpret an Imaginary Read Request and
  // assemble the reply. Part of the paper's 115 ms remote-fault budget.
  SimDuration backer_service = Ms(8);
  // A resident page access (TLB/map hit); executed by the microengine.
  SimDuration resident_access = Us(2);
  // Copy-on-write fault: copy one 512-byte page and remap.
  SimDuration cow_fault = Ms(6);

  // --- Disk ---------------------------------------------------------------
  SimDuration disk_page_read = Us(25800);
  SimDuration disk_page_write = Us(25800);

  // --- Kernel IPC ---------------------------------------------------------
  // Messages at or below the threshold are physically copied twice
  // (sender->kernel->receiver); larger ones are remapped copy-on-write
  // (section 2.1).
  ByteCount ipc_copy_threshold = 2048;
  SimDuration ipc_send_fixed = Us(700);
  SimDuration ipc_receive_fixed = Us(500);
  SimDuration ipc_copy_per_byte = Us(2);  // covers both copies
  SimDuration ipc_map_region = Us(350);  // per out-of-line region remap

  // --- NetMsgServer (user-level network IPC extension) --------------------
  // Per-message handling on one node. Two nodes handle every message.
  SimDuration netmsg_per_message = Ms(2);
  // Per-byte handling (checksums, fragment copies, protocol) on one node.
  // 2 x 33 us/byte = 66 us/byte end to end => ~15 KB/s pure-copy bulk
  // throughput including fragment overheads: matches Table 4-5 (e.g.
  // Lisp-T 2.2 MB in ~150 s, Minprog 142 KB in ~9 s).
  SimDuration netmsg_per_byte = Us(33);
  // Per-fragment handling on one node, on top of the per-message cost.
  SimDuration netmsg_per_fragment = Ms(1);
  // Fragment payload size used for large message reassembly.
  ByteCount netmsg_fragment_bytes = 16 * 1024;

  // --- NetMsgServer reliable transport (lossy-wire experiments only) ------
  // These knobs are inert unless a NetMsgServer is switched into reliable
  // mode (fault-injection testbeds); the lossless paper runs never consult
  // them. Retransmission backoff doubles from rto_initial, capped at
  // rto_max; after max_retries unacknowledged sends the transfer is
  // declared dead and handed to the dead-letter path.
  SimDuration netmsg_rto_initial = Ms(250);
  SimDuration netmsg_rto_max = Sec(4.0);
  std::uint32_t netmsg_max_retries = 10;
  ByteCount netmsg_ack_bytes = 16;

  // --- Network wire (10 Mbit Ethernet) -------------------------------------
  SimDuration wire_latency = Ms(4);
  double wire_bytes_per_sec = 1.25e6 * 0.8;  // 10 Mbit minus framing.

  // --- Excision / insertion (Table 4-4) ------------------------------------
  // AMap construction: process-map walk + system table searches.
  SimDuration amap_base = Ms(300);
  SimDuration amap_per_map_entry = Us(2000);
  SimDuration amap_per_real_page = Us(65);
  // RIMAS collapse: remapping resident pages + map entries into one chunk.
  SimDuration rimas_base = Ms(200);
  SimDuration rimas_per_map_entry = Us(150);
  SimDuration rimas_per_resident_page = Us(933);
  // Excision work outside those two (port-right extraction, PCB, microstate).
  SimDuration excise_other = Ms(90);
  // Resident-set packaging: partitioning the RIMAS walks the whole
  // validated map, including untouched zero-fill expanses (Lisp validates
  // its entire 4 GB heap at birth) — per megabyte of RealZero memory.
  // Zero by default so the headline sweep is untouched; the calibrated
  // Table 4-5 resident-set column sets it (~3 ms/MB lands Lisp at the
  // paper's 25.8 s).
  SimDuration rs_zero_scan_per_mb = SimDuration{0};
  // Insertion: address-space reconstruction dominates. Fitted to §4.3.1:
  // 263 ms (Minprog) .. 853 ms (Lisp-Del), a 3.3x spread.
  SimDuration insert_base = Ms(200);
  SimDuration insert_per_map_entry = Us(135);
  SimDuration insert_per_resident_page = Us(135);

  // --- Pre-copy migration (strategy 4; docs/INTERNALS.md section 13) --------
  // Extra trap taken when a write hits a clean, resident page while dirty
  // tracking is armed (write-protect fault to set the bitmap bit, like a
  // lightweight COW break). Only charged between pre-copy rounds; legacy
  // strategies never arm tracking, so their timings are untouched.
  SimDuration precopy_write_fault = Us(300);
  // Manager handling per pre-copy round (dirty-bitmap harvest, run
  // construction, ack bookkeeping) on top of the per-byte wire costs.
  SimDuration precopy_round_control = Ms(40);

  // --- Migration control ----------------------------------------------------
  // MigrationManager handling + kernel traps around the Core message; the
  // paper reports ~1 s for Core transfer in all cases.
  SimDuration migration_control = Ms(550);
  // Manager handling of the RIMAS message itself (descriptor preparation,
  // strategy bookkeeping): the floor of Table 4-5's ~0.16 s IOU transfers.
  SimDuration migration_rimas_handling = Ms(110);

  // --- Failure handling (lossy-wire experiments only) -----------------------
  // Like the reliable-transport knobs these are consulted only when a
  // testbed enables fault injection. A source manager that has not seen
  // kMigrateComplete after migration_abort_timeout rolls the process back,
  // and a destination drops pre-copy rounds staged with no context that
  // long after the latest one; a destination holding half a context (core
  // XOR rimas) for migration_pending_timeout tears the pending insert
  // down; a pager fetch unanswered after pager_fetch_timeout fails the
  // access (terminal IOU fault — the owed memory is unrecoverable).
  SimDuration migration_abort_timeout = Sec(600.0);
  SimDuration migration_pending_timeout = Sec(300.0);
  SimDuration pager_fetch_timeout = Sec(120.0);

  // --- Scheduling policy ------------------------------------------------------
  // Service imaginary-fault traffic (requests, replies, their kernel and
  // backer stages) on the CPU's high-priority lane so it overtakes queued
  // bulk-transfer work between items. The measured 1987 system had no such
  // lane; bench/beyond_paper's priority study measures what it would have
  // bought.
  bool fault_priority_lane = false;

  // --- Context sizes ---------------------------------------------------------
  // Microstate + kernel stack + PCB + port rights: "roughly 1 Kbyte".
  ByteCount core_context_bytes = 1024;
  // Serialized AMap entry and imaginary-IOU descriptor sizes in messages.
  ByteCount amap_entry_bytes = 16;
  ByteCount iou_descriptor_bytes = 32;
  // Page fetch protocol overheads.
  ByteCount fault_request_bytes = 24;
  ByteCount fault_reply_header_bytes = 16;

  // --- Content-addressed page service (docs/INTERNALS.md section 15) -------
  // Inert unless a testbed enables the content cache; the classic fault
  // path never consults them, so legacy byte counts are untouched.
  // One 128-bit content hash riding a RIMAS IOU region or a hash-probe
  // request, per page.
  ByteCount page_hash_bytes = 16;
  // A confirm ack: the origin's liveness + hash-match answer that replaces
  // a payload page on a local cache hit (request_id echo + verdict).
  ByteCount cache_confirm_bytes = 24;
  // CPU to look a hash up in a host's ContentCache (hash compare + LRU
  // touch); charged on the probing pager and on a holder serving a pull.
  SimDuration cache_lookup_cpu = Us(250);
};

// The default table models the paper's Perq testbed.
inline const CostTable& PerqCosts() {
  static const CostTable table{};
  return table;
}

}  // namespace accent

#endif  // SRC_HOST_COSTS_H_
