// Per-migration measurement record.
//
// One record is produced per trial and carries everything the evaluation
// harness needs to regenerate the paper's tables and figures: phase
// boundaries (request, excision, transfer, insertion, resumption) plus the
// excision sub-timings of Table 4-4.
#ifndef SRC_MIGRATION_MIGRATION_RECORD_H_
#define SRC_MIGRATION_MIGRATION_RECORD_H_

#include <string>

#include "src/base/types.h"
#include "src/migration/strategy.h"

namespace accent {

struct MigrationRecord {
  ProcId proc;
  std::string name;
  TransferStrategy strategy = TransferStrategy::kPureCopy;

  // Source-side phase boundaries.
  SimTime requested{0};     // migration command received
  SimTime excise_done{0};   // ExciseProcess trap returned
  SimTime core_sent{0};     // Core message handed to the IPC system
  SimTime rimas_sent{0};    // RIMAS message handed to the IPC system

  // Excision sub-timings (Table 4-4).
  SimDuration excise_amap{0};
  SimDuration excise_rimas{0};
  SimDuration excise_overall{0};

  // Destination-side boundaries (reported back in kMigrateComplete).
  SimTime core_arrived{0};
  SimTime rimas_arrived{0};
  SimDuration insert_time{0};
  SimTime resumed{0};  // first instruction eligible to run at the new host

  // Resident-set strategy bookkeeping.
  ByteCount resident_bytes_shipped = 0;
  // Extra RIMAS-handling charge from walking zero-fill maps during
  // resident-set packaging (costs.rs_zero_scan_per_mb; zero by default and
  // deliberately NOT serialised into the trial row, sweep_cache.cc).
  SimDuration rs_packaging_extra{0};

  // Pre-copy bookkeeping (Theimer's V system, §5; docs/INTERNALS.md §13).
  // Zero for the paper's three strategies.
  int precopy_rounds = 0;
  ByteCount precopy_bytes = 0;     // bytes shipped while still running
  SimTime frozen{0};               // process quiesced (downtime starts)
  // SLO-loop diagnostics (serialised into the trial row only for pre-copy
  // trials, so legacy rows stay byte-identical).
  double precopy_wws_pages = 0.0;            // writable-working-set estimate
  SimDuration precopy_predicted_downtime{0}; // flash prediction at freeze
  ByteCount precopy_flash_bytes = 0;         // final dirty pages in the RIMAS
  bool precopy_slo_met = false;              // predictor met target_downtime

  // Durable checkpoint bookkeeping (docs/INTERNALS.md §16; only set when a
  // checkpoint store is configured and deliberately NOT serialised into the
  // trial row — store-off rows stay byte-identical).
  bool checkpointed = false;
  ByteCount checkpoint_bytes = 0;

  // Abort/rollback bookkeeping (lossy-wire runs only; never set on the
  // lossless paper trials and deliberately NOT serialised into the sweep
  // cache — the cache format describes successful migrations).
  bool aborted = false;            // transfer given up (peer unreachable)
  SimTime aborted_at{0};
  std::string abort_reason;
  bool rolled_back = false;        // process runnable at the source again
  SimDuration rollback_insert{0};  // InsertProcess cost of the rollback

  // Downtime: how long the process was unable to execute anywhere. For
  // pre-copy this is freeze->resume; the paper's strategies freeze at the
  // migration request.
  SimDuration Downtime() const {
    const SimTime start = frozen > SimTime{0} ? frozen : requested;
    return resumed - start;
  }

  // --- derived ------------------------------------------------------------
  // Table 4-5: RIMAS (address space) transfer time.
  SimDuration RimasTransferTime() const { return rimas_arrived - rimas_sent; }
  // Core context transfer time (§4.3.2: ~1 s in all cases).
  SimDuration CoreTransferTime() const { return core_arrived - core_sent; }
  // Whole transfer phase: excision end to resumption at the new site.
  SimDuration TransferPhase() const { return resumed - excise_done; }
};

}  // namespace accent

#endif  // SRC_MIGRATION_MIGRATION_RECORD_H_
