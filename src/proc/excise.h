// ExciseProcess / InsertProcess — the migration kernel primitives (§3.1).
//
// ExciseProcess removes a quiescent process's entire context and delivers it
// as two self-contained IPC messages:
//   Core  — microstate + kernel stack + PCB + port rights (~1 Kbyte, always
//           physically copied) plus an AMap describing the whole address
//           space;
//   RIMAS — the Real and Imaginary Memory Address Space: every RealMem and
//           ImagMem portion, collapsed. RealZeroMem never travels — the
//           AMap is enough to recreate it lazily at the destination.
// Once excised the process ceases to exist at the source; its port rights
// pass transparently inside the Core message, so senders are undisturbed.
//
// InsertProcess is the inverse: given the two messages it rebuilds the
// address space (validating zero ranges, installing shipped pages, mapping
// IOU ranges imaginary), re-homes the port rights and leaves the process
// ready to resume exactly where it stopped.
//
// Both primitives charge the calibrated Table 4-4 costs through
// MigrationCostModel (src/migration/cost_model.h): excision its AMap and
// RIMAS terms of the process's FootprintOf, insertion its InsertCost of the
// shipped pages.
#ifndef SRC_PROC_EXCISE_H_
#define SRC_PROC_EXCISE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/ipc/message.h"
#include "src/migration/cost_model.h"
#include "src/proc/host_env.h"
#include "src/proc/process.h"
#include "src/proc/trace.h"

namespace accent {

// Typed body of the Core context message.
struct CoreBody {
  ProcId proc;
  std::string name;
  std::uint64_t microstate_token = 0;
  TracePtr trace;            // simulation metadata; program text rides in memory
  std::size_t trace_pc = 0;
};

// Typed body of the RIMAS message.
struct RimasBody {
  ProcId proc;
  // Set on pre-copy's flash: the destination merges the round pages it
  // staged beneath it. Any other RIMAS discards them, as left over from an
  // aborted pre-copy attempt.
  bool precopy_flash = false;
};

struct ExciseResult {
  Message core;   // op kMigrateCore (dest unset; the caller routes it)
  Message rimas;  // op kMigrateRimas
  SimDuration amap_time{0};
  SimDuration rimas_time{0};
  SimDuration overall_time{0};
};

// What the cost formulas need to know about a live process: its validated
// map entries, RealMem pages and resident frames on its host. Excision,
// the pre-copy downtime predictor and LoadBalancerPolicy's victim rank all
// price a live process through it.
MigrationCostModel::Footprint FootprintOf(const Process& proc);

// Excises `proc` (must be quiescent: suspended or never started). `done`
// fires when the kernel trap completes, with both context messages built.
void ExciseProcess(Process* proc, std::function<void(ExciseResult)> done);

struct InsertResult {
  Process* process = nullptr;
  SimDuration insert_time{0};
};

// Recreates a process on `env` from its two context messages. The new
// process is left kReady at its original trace position; the caller starts
// it. `own` receives ownership of the Process object.
void InsertProcess(HostEnv* env, Message core, Message rimas,
                   std::function<void(std::unique_ptr<Process>, InsertResult)> done);

}  // namespace accent

#endif  // SRC_PROC_EXCISE_H_
