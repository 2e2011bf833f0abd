// The MigrationManager process (section 3.2).
//
// One runs on every participating host. Given a process and a destination,
// it runs one pipeline for every strategy: pre-copy first ships
// acknowledged live rounds while the process keeps running; then the
// manager quiesces the process, excises its context with ExciseProcess,
// applies the transfer strategy to the RIMAS message —
//   pure-copy:     NoIOUs set; every RealMem page ships now;
//   pure-IOU:      NoIOUs clear; the intermediary NetMsgServer caches the
//                  data en route and becomes its backer;
//   resident-set:  resident pages ship physically, the non-resident
//                  remainder is adopted by the local NetMsgServer as IOUs;
//   pre-copy:      NoIOUs set; only the pages dirtied since the last
//                  acknowledged round ship, the rest is staged already —
// and sends both context messages to the peer manager, which rebuilds the
// process with InsertProcess and resumes it. The peer reports the
// destination-side timings back in a kMigrateComplete message.
#ifndef SRC_MIGRATION_MIGRATION_MANAGER_H_
#define SRC_MIGRATION_MIGRATION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ipc/fabric.h"
#include "src/migration/migration_record.h"
#include "src/migration/strategy.h"
#include "src/netmsg/netmsgserver.h"
#include "src/proc/excise.h"
#include "src/proc/host_env.h"
#include "src/proc/process.h"

namespace accent {

// Remote-command body: "migrate process P to the manager at port D".
struct MigrateRequestBody {
  ProcId proc;
  PortId dest_manager;
  TransferStrategy strategy = TransferStrategy::kPureCopy;
};

// Pre-copy protocol (the iterative V-system baseline of section 5): page
// snapshots ship while the process still runs; the receiver stages them and
// acknowledges each round so the sender never overruns the network — the
// failure mode Theimer reports.
struct PreCopyRoundBody {
  ProcId proc;
  int round = 0;
  PortId reply_port;
};
struct PreCopyAckBody {
  ProcId proc;
  int round = 0;
};

struct PreCopyConfig {
  int max_rounds = 3;               // snapshot + at most this many dirty rounds
  PageIndex stop_threshold = 4;     // freeze early once the dirty set is this small
  // Target-downtime SLO. Zero (the default) disables the predictor and the
  // stagnation cutoff, reproducing the original round loop exactly. When
  // set, the manager freezes as soon as the predicted freeze-and-flash
  // downtime (MigrationCostModel::PreCopyCostOn over the writable working
  // set) meets the target, or when a round stops shrinking the dirty set —
  // more rounds can then only waste bytes, never meet the SLO sooner.
  SimDuration target_downtime{0};

  bool operator==(const PreCopyConfig&) const = default;
};

// Destination-side timing report.
struct MigrateCompleteBody {
  ProcId proc;
  SimTime core_arrived{0};
  SimTime rimas_arrived{0};
  SimDuration insert_time{0};
  SimTime resumed{0};
};

// Chain collapse (multi-hop re-migration): after a re-migrated process
// resumes at the new destination, the intermediate host hands its cached
// backing objects to the chain origin and asks the destination to rebind
// its IouRefs so the intermediary drops off the fault path.
struct RebindIouBody {
  ProcId proc;
  IouRef from;  // the intermediary's (now exported) cache object
  IouRef to;    // the collapsed owner at the chain origin
  PortId reply_port;
};
struct RebindAckBody {
  ProcId proc;
  IouRef from;
  bool rebound = false;  // false: process unknown here (died or moved on)
  std::uint64_t segments_rebound = 0;
};

inline constexpr ByteCount kRebindIouBodyBytes = 56;
inline constexpr ByteCount kRebindAckBodyBytes = 40;

// Result of collapsing one process's backing chain at the intermediary.
struct ChainCollapseStats {
  ProcId proc;
  std::uint64_t objects_handed_off = 0;  // cache objects exported to origin
  std::uint64_t rebinds_acked = 0;       // destination rebind confirmations
  std::uint64_t segments_rebound = 0;    // stand-in segments repointed there
  SimTime collapsed_at{0};
};

class MigrationManager : public Receiver {
 public:
  using MigrateDone = std::function<void(const MigrationRecord&)>;

  explicit MigrationManager(HostEnv* env);

  // Allocates the command port.
  void Start();
  PortId port() const { return port_; }
  HostId host() const { return env_->id; }

  // Makes `proc` (running or ready on this host) eligible for remote
  // migration commands (kMigrateRequest names processes by id).
  void RegisterLocal(Process* proc);

  // Registered processes currently runnable on this host (policy input).
  // A process under live pre-copy still counts: it keeps running here
  // until it is frozen. LoadBalancerPolicy does not pick it again only
  // because its source host stays tasked until `done` fires; Migrate
  // itself refuses a process that already has an outbound migration.
  std::vector<Process*> RunnableLocalProcesses() const;

  // Migrates `proc` to the MigrationManager listening on `dest_manager`.
  // Precondition: `proc` has no outbound migration in flight from here.
  // `done` fires once on this host: when the peer confirms resumption, or
  // when the migration aborts. kPreCopy is the iterative pre-copy baseline
  // under the manager's PreCopyConfig (set_precopy_config): the address
  // space is snapshot and shipped while the process keeps executing,
  // dirtied pages re-ship each acknowledged round, and only then is the
  // process frozen and excised, its RIMAS carrying just the final dirty
  // pages. Downtime shrinks; total bytes grow (section 5's trade-off).
  void Migrate(Process* proc, PortId dest_manager, TransferStrategy strategy, MigrateDone done);

  // Round/SLO knobs for migrations started with kPreCopy.
  void set_precopy_config(const PreCopyConfig& config) { precopy_config_ = config; }
  const PreCopyConfig& precopy_config() const { return precopy_config_; }

  // Fires whenever a process is inserted (arrives) at this host.
  void set_on_insert(std::function<void(Process*)> fn) { on_insert_ = std::move(fn); }

  // Fires on this host (the intermediary) when a re-migrated process's
  // backing chain has fully collapsed: every cache object exported to the
  // chain origin, every destination IouRef rebound, forwarding stubs
  // installed. Also fires (with zero counts) when a re-migration completes
  // with nothing to hand off (e.g. a pure-copy second hop).
  using CollapseDone = std::function<void(const ChainCollapseStats&)>;
  void set_on_collapse(CollapseDone fn) { on_collapse_ = std::move(fn); }

  std::uint64_t chains_collapsed() const { return chains_collapsed_; }

  // Durable checkpoint/restart (docs/INTERNALS.md §16). When a store port is
  // configured, every outbound migration first checkpoints the excised image
  // to it, and a process whose residual dependency lands on a dead host is
  // re-incarnated from its latest checkpoint instead of staying terminal.
  void set_checkpoint_store(PortId store) { checkpoint_store_ = store; }
  PortId checkpoint_store() const { return checkpoint_store_; }
  std::uint64_t checkpoints_sent() const { return checkpoints_sent_; }
  std::uint64_t restores_completed() const { return restores_completed_; }

  // Aborts an outbound migration that can no longer complete (dead-lettered
  // context, transfer-complete handshake timeout), acting by its phase. A
  // live pre-copy process never stopped: tracking is disarmed and it runs
  // on. A process being frozen and excised is rolled back by the excise
  // continuation, with the image it cuts. A sent process is rolled back
  // from the retained authoritative context: re-inserted locally and
  // restarted. The done callback fires with record.aborted and
  // record.rolled_back set. No-op if the migration already completed or
  // aborted.
  void AbortMigration(ProcId proc, const std::string& reason);

  // Processes that migrated here, rolled back or were restored here.
  const std::vector<std::unique_ptr<Process>>& adopted() const { return adopted_; }

  // Inbound migrations with staged rounds or context waiting here.
  std::size_t pending_inserts() const { return pending_.size(); }

  // Receiver: core/rimas/complete/request messages.
  void HandleMessage(Message msg) override;
  const char* receiver_name() const override { return "migration-manager"; }

 private:
  // Destination side of one inbound migration: pre-copy's staged round
  // pages (newer rounds overwrite older copies), then the two context
  // messages.
  struct PendingInsert {
    std::map<PageIndex, PageRef> staged;
    SimTime last_round{0};  // the latest staged round's arrival
    Message core;
    bool have_core = false;
    SimTime core_arrived{0};
    Message rimas;
    bool have_rimas = false;
    SimTime rimas_arrived{0};
    PortId reply_port;
    bool timeout_armed = false;  // destination teardown timer scheduled
  };

  // Source side of one outbound migration, from the request to the peer's
  // kMigrateComplete or the abort. Its phase says what an abort must undo.
  enum class Phase {
    kLive,      // pre-copy rounds in flight; the process still runs
    kFreezing,  // suspending and excising; no image to re-insert yet
    kSent,      // excised; the context is queued or on the wire
  };
  struct Outbound {
    Phase phase = Phase::kFreezing;
    Process* proc = nullptr;
    PortId dest_manager;
    MigrationRecord record;
    MigrateDone done;
    // Pre-copy: its knobs, the round in flight (pages shipped, start) and
    // the previous round's dirty count for the stagnation cutoff.
    PreCopyConfig config;
    std::size_t round_pages = 0;
    SimTime round_start{0};
    std::size_t prev_dirty = 0;
    // The context as excised, strategy applied but not pre-copy's dirty
    // filter, kept until the handshake so an abort can restore the process
    // (fault-injection runs only).
    Message rollback_core;
    Message rollback_rimas;
  };

  // Failure handling is active only when the local NetMsgServer runs the
  // reliable transport (fault-injection testbeds); lossless runs carry no
  // context copies, no timers, and an unchanged event schedule.
  bool failure_handling_enabled() const { return env_->netmsg->reliable(); }

  void HandleDeadLetter(const Message& msg);
  void ArmAbortTimer(ProcId proc);
  void ArmPendingTimeout(ProcId proc, PendingInsert* pending);
  void ArmStagingTimeout(ProcId proc, PendingInsert* pending);

  // The outbound pipeline. SendRound ships a pre-copy round; at its ack
  // OnRoundAcked sends another or freezes. Freeze suspends the process,
  // samples `keep` (the Real pages that stay data in the RIMAS: the
  // resident set for resident-set, the dirty set for pre-copy) and
  // `zero_bytes` (resident-set's RealZero footprint), and excises it.
  // OnExcised checkpoints, applies the strategy, keeps the rollback copy,
  // filters pre-copy's flash down to `keep` and sends.
  void SendRound(Outbound* out);
  void OnRoundAcked(const PreCopyAckBody& ack);
  void Freeze(Outbound* out);
  void OnExcised(Outbound* out, const std::vector<PageIndex>& keep, ByteCount zero_bytes,
                 ExciseResult excised);
  void ApplyStrategy(Message* rimas, TransferStrategy strategy,
                     const std::vector<PageIndex>& keep, ByteCount zero_bytes,
                     MigrationRecord* record);

  // Source-side rollback: retires the migration, re-inserts its rollback
  // image here, restarts the process and reports the abort.
  void RollBack(ProcId proc);

  // Takes a process InsertProcess rebuilt here: owns, registers, arms the
  // restore hook and starts it.
  Process* Adopt(std::unique_ptr<Process> process);

  // Chain-collapse internals (see RebindIouBody). RecordChainOrigin scans a
  // freshly-excised RIMAS for remote migration-cache backers; StartChainCollapse
  // runs at kMigrateComplete for re-migrations.
  void RecordChainOrigin(ProcId proc, PortId dest_manager, const Message& rimas);
  void StartChainCollapse(ProcId proc);
  void FinishHandoff(ProcId proc, const IouRef& from, bool export_accepted);
  void FinishCollapseIfDone(ProcId proc);

  void MaybeInsert(ProcId proc);

  // Checkpoint/restart internals. CheckpointExcised ships the pre-strategy
  // image to the store; RequestRestore asks for the latest version after a
  // terminal dead-backer fault; HandleCheckpointReply re-incarnates;
  // InstallRestoreFaultHook arms the crash trigger on an inserted process.
  void CheckpointExcised(const ExciseResult& excised, const std::vector<PageIndex>& keep,
                         MigrationRecord* record);
  void RequestRestore(Process* proc);
  void HandleCheckpointReply(Message msg);
  void InstallRestoreFaultHook(Process* proc);

  // Hands the two context messages to the IPC system (RIMAS first) after
  // the manager's RIMAS handling; sends nothing if the migration aborted
  // meanwhile.
  void SendExcisedContext(Outbound* out, ExciseResult excised);

  // Destination side of pre-copy: stages a round's pages and acks it;
  // merges the staged pages under the flash RIMAS.
  void HandlePreCopyRound(Message msg);
  static void MergeStagedPages(Message* rimas, std::map<PageIndex, PageRef> staging);

  // Per-process chain state at the intermediary, recorded when a re-excise
  // finds imaginary segments backed by a remote migration cache.
  struct ChainState {
    IouRef origin;        // the collapsed owner (offset-normalised)
    PortId dest_manager;  // where the process went (rebind target)
    int pending_handoffs = 0;
    int pending_rebinds = 0;
    ChainCollapseStats stats;
  };

  HostEnv* env_;
  PortId port_;
  std::function<void(Process*)> on_insert_;
  CollapseDone on_collapse_;
  std::map<std::uint64_t, ChainState> chain_;  // keyed by ProcId
  std::uint64_t chains_collapsed_ = 0;
  std::map<std::uint64_t, Process*> local_;         // registered local processes
  std::map<std::uint64_t, PendingInsert> pending_;  // inbound, keyed by ProcId
  std::map<std::uint64_t, Outbound> outbound_;      // outbound, keyed by ProcId
  std::vector<std::unique_ptr<Process>> adopted_;
  PreCopyConfig precopy_config_{};

  // Checkpoint/restart state. `restore_pending_` dedups in-flight restore
  // requests; `restored_version_` stops a restore loop when the restored
  // incarnation's inherited backers are also dead (the image cannot help a
  // second time — the fault stays terminal).
  PortId checkpoint_store_;
  std::set<std::uint64_t> restore_pending_;
  std::map<std::uint64_t, std::uint64_t> restored_version_;
  std::uint64_t checkpoints_sent_ = 0;
  std::uint64_t restores_completed_ = 0;
};

}  // namespace accent

#endif  // SRC_MIGRATION_MIGRATION_MANAGER_H_
