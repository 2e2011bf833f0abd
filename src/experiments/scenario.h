// One scenario spec, one runner.
//
// Every mechanistic experiment in this repo is the paper's §4 trial: stage a
// Table 4-1 process at its migration point on a private testbed, migrate it
// (optionally on to a third host), run it to completion and judge what
// finished. FuzzScenario describes one such trial; RunMech runs it and
// returns everything any caller reads; PlantFaults places a scenario's
// crash and partition windows at a lossless baseline's phase boundaries;
// Classify turns a run into the failure-sweep verdict; MechRowToJson writes
// the three as one report row.
//
// The fuzzer (scenario_fuzz.h) draws specs at random. The paper's 77-trial
// grid and its staged ablations (sweep.h), the failure and checkpoint
// matrices (failure_sweep.h), the chain grid (chain.h) and the pre-copy grid
// (precopy.h) are grids of specs. Every one of them judges what finished
// against ReferenceChecksum, the contents the same process ends with when
// run to completion without migrating, folded from its image and trace,
// and writes each run through MechRowToJson.
#ifndef SRC_EXPERIMENTS_SCENARIO_H_
#define SRC_EXPERIMENTS_SCENARIO_H_

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/experiments/testbed.h"
#include "src/host/calibration.h"
#include "src/migration/migration_manager.h"
#include "src/migration/migration_record.h"
#include "src/migration/strategy.h"
#include "src/net/fault.h"
#include "src/net/traffic.h"
#include "src/netmsg/netmsgserver.h"
#include "src/vm/address_space.h"
#include "src/vm/pager.h"
#include "src/vm/segment.h"

namespace accent {

struct TrialResult;
struct WorkloadImage;

// The failure-sweep taxonomy of one run.
enum class FailureOutcome : int {
  kCompleted = 0,      // the migration finished and the process ran to completion
  kAborted = 1,        // the transfer failed; the source rolled the process back
  kTerminalFault = 2,  // a page owed by a crashed host stopped the process
  kHung = 3,           // watchdog fired, or nothing finished or faulted: a bug
};

const char* FailureOutcomeName(FailureOutcome outcome);

struct FuzzScenario {
  std::uint64_t seed = 42;

  // Topology: hosts carry ids 1..host_count; the workload starts on index 0.
  int host_count = 2;
  std::vector<HostCalibration> calibrations{};

  // Workload + transfer.
  std::string workload = "Minprog";
  TransferStrategy strategy = TransferStrategy::kPureCopy;
  std::uint32_t prefetch = 0;
  int dest = 1;  // first-hop destination host index

  // Content-addressed page cache (drawn independently of the other menus so
  // cache-on and cache-off runs of the same seed share everything else).
  bool content_cache = false;
  std::int64_t content_cache_pages = 4096;

  // Durable checkpoint store (docs/INTERNALS.md §16), on its own fork for
  // the same reason: legacy seed streams are untouched. Forced off when
  // every host is diskless (nothing could anchor the store).
  // checkpoint_host pins the store's 1-based HostId; 0 picks the first
  // host with a disk.
  bool checkpoint = false;
  int checkpoint_host = 0;

  // Pre-copy knobs for every host's manager; the default is the manager's
  // own. A nonzero live_migrate_at starts the process at time zero and
  // fires the first hop at that instant, so pre-copy rounds race a real
  // writer; zero migrates at the staged migration point (the paper's model).
  PreCopyConfig precopy{};
  SimDuration live_migrate_at{0};

  // Optional mid-trial re-migration to a third host.
  bool remigrate = false;
  int redest = -1;
  double remigrate_at = 0.5;  // fraction of the trace remaining at `dest`

  // Wire mistreatment. Crash/partition windows are planted at phase
  // boundaries from the scenario's lossless baseline at run time.
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double reorder = 0.0;
  bool partition_transfer = false;  // transient source<->dest cut mid-transfer
  bool crash_dest = false;          // first-hop destination dies for good
  bool crash_source = false;        // source dies mid-remote-execution
  // The first-hop destination dies for good at this instant (0 = never);
  // unlike the windows above it needs no baseline to place.
  SimTime crash_dest_at{0};

  // The paper's ablation knobs, at the 1987 system's values by default:
  // NetMsgServer IOU substitution (§2.4), every host's physical frames (a
  // Perq's ~2 MB), and the resident-set calibration's extra RIMAS packaging
  // charge per megabyte of zero-fill footprint (costs.rs_zero_scan_per_mb).
  bool iou_caching = true;
  std::size_t frames_per_host = 4096;
  SimDuration rs_zero_scan_per_mb{0};

  // Observability hook (not owned; null for no tracing). Not part of the
  // scenario: recording never alters the schedule, so Describe() and the
  // report rows leave it out.
  Tracer* tracer = nullptr;

  bool faulty() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || reorder > 0.0 ||
           partition_transfer || crash_dest || crash_source || crash_dest_at != SimTime{0};
  }
  // One-line human summary (for logs and JSON). Fields at their defaults
  // are left out.
  std::string Describe() const;
};

// One run of a scenario, snapshotted before its testbed dies.
struct MechRun {
  bool drained = false;  // the event queue emptied before the horizon
  bool hop1_done = false;
  MigrationRecord hop1;
  bool remigrate_fired = false;
  bool hop2_done = false;
  MigrationRecord hop2;

  // The authoritative incarnation that finished: after an aborted first hop
  // the source's rollback, otherwise the furthest hop's (searched redest,
  // dest, source). A destination that crashed mid-handshake may still run
  // its twin to completion; that twin only counts when nothing finished at
  // home. The checksum is ObservableChecksum captured at the instant of its
  // kTerminate, not post-drain: at that point the space-death notices are
  // posted but not yet delivered (even a local delivery costs a scheduled
  // kernel hop), so every backing object the process could still read
  // remains intact. A post-mortem read races those deaths against the chain
  // collapse — a client terminating while its rebind is still in flight
  // legitimately retires both the origin and the intermediate backing
  // object, and the books balance even though nothing is left to read.
  bool finished = false;
  int finish_host = -1;  // host index
  SimTime finish{0};
  std::uint64_t checksum = 0;
  bool any_faulted = false;

  // Backer balance at drain time.
  bool nonorigin_objects_clear = true;
  std::uint64_t duplicate_deaths = 0;
  std::string backer_detail;

  // Dedup oracle at drain time: pages the cache plane served, and every
  // hash mismatch any layer of the walk counted (pager rejects of holder
  // payloads, cache insertions whose bytes belie their claimed hash, origin
  // confirm probes whose bytes disagree with the rider).
  std::uint64_t cache_activity = 0;
  std::uint64_t dedup_mismatches = 0;

  // Checkpoint-plane activity at drain time (puts sent, restores finished).
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;

  // Retry traffic: the NetMsgServer retry counters (fragments and bytes
  // retransmitted, duplicates suppressed, transfers dead-lettered) of the
  // source and the first-hop destination summed, and the wire's lost
  // deliveries.
  NetMsgStats netmsg;
  std::uint64_t deliveries_lost = 0;

  // Wire bytes by TrafficKind, the messages that carried them and their
  // series in kTrafficBucket buckets (Figures 4-3 and 4-5), NetMsgServer
  // busy time summed over every host (Figure 4-4), and the first-hop
  // destination's pager (Table 4-3, Figure 4-1's faults).
  std::array<ByteCount, static_cast<std::size_t>(TrafficKind::kKindCount)> wire_bytes{};
  std::uint64_t messages = 0;
  std::vector<TrafficRecorder::Bucket> series;
  SimDuration netmsg_busy{0};
  PagerStats dest_pager;

  // Re-migrating runs only. The collapse at the intermediary (the
  // first-hop destination), and its and the origin's backer requests
  // counted from the moment it completed — or from hop-2 completion when
  // nothing collapsed (pure-copy and pre-copy leave no IOUs behind). The
  // intermediary's backer and the final host's pager are read at drain.
  bool collapse_done = false;
  ChainCollapseStats collapse;
  std::uint64_t dest_requests_after_collapse = 0;
  std::uint64_t dest_forwards_after_collapse = 0;
  std::uint64_t origin_requests_after_collapse = 0;
  std::uint64_t dest_objects = 0;
  std::uint64_t dest_stubs = 0;
  std::uint64_t dest_handoff_pages = 0;
  std::uint64_t redest_imag_faults = 0;

  // First-hop downtime (MigrationRecord::Downtime); zero unless the hop
  // completed.
  SimDuration Downtime() const {
    return hop1_done && !hop1.aborted ? hop1.Downtime() : SimDuration{0};
  }
  // Migration request to the finishing incarnation's completion; zero when
  // nothing finished.
  SimDuration RequestToFinish() const {
    return finished ? finish - hop1.requested : SimDuration{0};
  }
  // First-hop resumption to completion; zero when nothing finished.
  SimDuration RemoteExec() const { return finished ? finish - hop1.resumed : SimDuration{0}; }
  // Figure 4-2's summed metric: address-space transfer + remote execution.
  SimDuration TransferPlusExec() const { return hop1.RimasTransferTime() + RemoteExec(); }
  ByteCount BytesOf(TrafficKind kind) const { return wire_bytes[static_cast<std::size_t>(kind)]; }
  // Page traffic on the wire: bulk transfer plus fault replies.
  ByteCount PageBytes() const {
    return BytesOf(TrafficKind::kBulkData) + BytesOf(TrafficKind::kFaultData);
  }
  // Every byte on the wire, of every kind.
  ByteCount WireBytes() const;
};

// The lossless testbed `sc` runs on: its hosts, calibrations, content cache,
// checkpoint store, ablation knobs and tracer. RunMech adds the wire's
// faults; the dedup rounds (dedup.h) share one such testbed.
TestbedConfig TestbedConfigOf(const FuzzScenario& sc);

// Runs `sc` on a private testbed whose wire follows `plan`, drawing verdicts
// from `fault_seed`; a non-trivial plan switches on the reliable NetMsgServer
// transport. The process is staged from `image` when given (built for
// sc.workload and sc.seed; workload.h). Never CHECKs completion: every
// outcome comes back in the MechRun.
MechRun RunMech(const FuzzScenario& sc, const FaultPlan& plan, std::uint64_t fault_seed,
                const WorkloadImage* image = nullptr);

// RealMem bytes the first hop moved as page data (Table 4-3): what it
// shipped at migration time plus every page the destination's imaginary
// faults fetched, prefetch included.
ByteCount RealBytesTransferred(const FuzzScenario& sc, const MechRun& run);

// `sc`'s wire recipe as a plan: its drop/duplicate/delay/reorder rates, the
// permanent destination crash at crash_dest_at, and each window it asks
// for, placed at `baseline`'s phase boundaries — the transient
// source<->dest partition (1 s) and the permanent destination crash halfway
// between excision and resumption, the permanent source crash 30% into
// remote execution.
FaultPlan PlantFaults(const FuzzScenario& sc, const MechRun& baseline);

struct MechVerdict {
  FailureOutcome outcome = FailureOutcome::kHung;
  bool rolled_back = false;   // aborted, and the source rolled the process back
  bool restored = false;      // completed, via a checkpoint-store restore
  bool integrity_ok = false;  // an incarnation finished with `reference` contents
  std::string failure;        // empty unless the run exposes a bug
};

// The failure-sweep classification of `run`, judging the finished
// incarnation's contents against `reference`.
MechVerdict Classify(const MechRun& run, std::uint64_t reference);

// One cell of a grid: a spec, its run and its verdict.
struct MechTrial {
  FuzzScenario spec;
  MechRun run;
  MechVerdict verdict;
};

// Runs each of `specs` on its own testbed with the faults PlantFaults places
// without a baseline (its wire rates and crash_dest_at; a spec asking for a
// phase-boundary window is a caller bug), drawing verdicts from the spec's
// seed, and judges it against ReferenceChecksum, computed once per
// (workload, seed). Fans out over up to `threads` workers (0 =
// SweepThreadCount()); results in input order, byte-identical at any thread
// count.
std::vector<MechTrial> RunMechTrials(const std::vector<FuzzScenario>& specs, int threads = 0);

// The one per-run report row (docs/OBSERVABILITY.md): the spec's Describe()
// line and grid axes, the verdict, and the run's times (integer µs), bytes,
// retry traffic and chain collapse. Every family's row is this plus only
// the keys that family declares.
Json MechRowToJson(const FuzzScenario& spec, const MechRun& run, const MechVerdict& verdict);

// The row the golden sweep digest (tests/golden_sweep_test.cc) hashes, one
// per RunTrial result (trial.h): every field it emits, and every field it
// deliberately omits, is part of the results contract. Fields added after
// the seed (pre-copy knobs, the content cache, the checkpoint store) are
// emitted only when enabled, so the paper grid's rows stay byte-identical.
Json TrialResultToJson(const TrialResult& result);

// FNV fold of each planned page's index and the PageIntegrityChecksum of
// the contents a fault would observe there, visited in ascending order;
// its values are compared within one process and never serialized. Pages
// owed to a backing chain are resolved through their backer object via
// the segment table, so the fold verifies that collapses moved bytes, not
// just references.
std::uint64_t ObservableChecksum(const AddressSpace& space, const SegmentTable& segments,
                                 const std::set<PageIndex>& touches);

// The integrity reference for `workload`: what ObservableChecksum folds at
// the kTerminate of the process run to completion unmigrated, computed
// without a simulation. Each planned page, ascending, is its image page
// with the trace's writes to it applied in trace order. Migration must
// leave page contents exactly as this fold gives them, whatever the
// strategy, topology, calibration or faults. Reads `image` when given,
// which must have been planned for (workload, seed), and plans one
// otherwise. CHECK-fails, as the unmigrated run would fault or run off its
// trace, when a touch lies outside the image's Real and RealZero regions,
// a planned touch is not a RealMem page, or the trace never terminates.
std::uint64_t ReferenceChecksum(const std::string& workload, std::uint64_t seed,
                                const WorkloadImage* image = nullptr);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_SCENARIO_H_
