// The simulated two-Perq Accent testbed.
//
// Assembles N hosts — CPU, disk, physical memory, pager, NetMsgServer,
// MigrationManager — over one shared Ethernet, one IPC fabric and one
// segment table, exactly the environment the paper's measurements were
// taken on (section 4). Every experiment and example builds on this.
#ifndef SRC_EXPERIMENTS_TESTBED_H_
#define SRC_EXPERIMENTS_TESTBED_H_

#include <memory>
#include <vector>

#include "src/fs/file_service.h"
#include "src/host/calibration.h"
#include "src/host/costs.h"
#include "src/host/cpu.h"
#include "src/host/disk.h"
#include "src/host/physical_memory.h"
#include "src/ipc/fabric.h"
#include "src/migration/migration_manager.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/page_service.h"
#include "src/net/traffic.h"
#include "src/netmsg/netmsgserver.h"
#include "src/proc/host_env.h"
#include "src/sim/simulator.h"
#include "src/vm/pager.h"
#include "src/vm/segment.h"

namespace accent {

// Width of the testbed's traffic series: Figure 4-5's resolution is five of
// these (bench/run_all.cc sums them).
inline constexpr SimDuration kTrafficBucket = Ms(500);

struct TestbedConfig {
  int host_count = 2;
  // A Perq carried ~2 MB of memory: 4096 frames of 512 bytes.
  std::size_t frames_per_host = 4096;
  CostTable costs{};
  // NetMsgServer IOU substitution (the paper's system has it on).
  bool iou_caching = true;

  // Fault injection. A non-trivial plan attaches a FaultInjector to the
  // wire and switches every host to the reliable NetMsgServer transport
  // (lossy delivery without retransmission would simply wedge). The
  // default — empty plan, reliable off — leaves the lossless event
  // schedule bit-identical to the seed.
  FaultPlan fault_plan{};
  std::uint64_t fault_seed = 42;
  // Force the reliable transport even with a trivial plan (protocol tests).
  bool reliable_transport = false;

  // Content-addressed cluster page service (docs/INTERNALS.md §15). Off by
  // default: no PageService is constructed, no hashes are ever computed and
  // every trial stays byte-identical to the classic protocol. When on,
  // every host gets a ContentCache of content_cache_pages and joins one
  // shared PageDirectory whose holder announcements become visible one
  // wire latency after they are recorded.
  bool content_cache = false;
  std::int64_t content_cache_pages = 4096;

  // Durable checkpoint store (docs/INTERNALS.md §16). Off by default: no
  // FileServer is constructed and every manager's store port stays invalid,
  // leaving the event schedule byte-identical to the store-off seed. When
  // on, one FileServer acts as the cluster's checkpoint store and every
  // manager checkpoints outbound migrations to it. checkpoint_host selects
  // where it runs (1-based HostId; 0 — the default — picks the first
  // non-diskless host, so diskless sources checkpoint to a *remote* store).
  bool checkpoint_store = false;
  int checkpoint_host = 0;

  // Per-host calibrations, indexed by host (entry i calibrates HostId i+1).
  // Empty — the default — is the homogeneous testbed, byte-identical to the
  // seed; when present the vector must cover every host. A diskless entry
  // turns that host's Disk into a remote-paging path and marks its HostEnv
  // so no FileServer can anchor backing there.
  std::vector<HostCalibration> calibrations{};

  // Observability (not owned; may be null — the default — for no tracing).
  // Attached to the simulator at construction; every instrumented subsystem
  // reaches it through sim().tracer(). Recording never alters the event
  // schedule, so traced and untraced runs produce identical results.
  Tracer* tracer = nullptr;
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config = TestbedConfig{});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulator& sim() { return sim_; }
  const CostTable& costs() const { return config_.costs; }
  int host_count() const { return static_cast<int>(hosts_.size()); }

  HostEnv* host(int index);
  MigrationManager* manager(int index);
  NetMsgServer* netmsg(int index);
  Pager* pager(int index);
  Cpu* cpu(int index);
  // Null unless config.content_cache is on.
  PageService* page_service(int index);
  PageDirectory* page_directory() { return page_directory_.get(); }

  TrafficRecorder& traffic() { return traffic_; }
  IpcFabric& fabric() { return fabric_; }
  SegmentTable& segments() { return segments_; }
  Network& network() { return network_; }

  // Null unless the config carried a non-trivial fault plan.
  FaultInjector* fault_injector() { return fault_.get(); }

  // Null unless config.checkpoint_store is on.
  FileServer* checkpoint_store() { return checkpoint_store_.get(); }

  // Simulated-time watchdog: drains the event queue but gives up once the
  // clock passes Now() + limit. Returns true if the queue drained; on
  // false, logs the earliest pending event times so a hung test fails
  // fast with a usable dump instead of spinning a wall-clock timeout.
  bool RunGuarded(SimDuration limit = Sec(3600.0));

  // Sets the imaginary-fault prefetch on every host's pager.
  void SetPrefetch(std::uint32_t pages);

  // NetMsgServer busy time summed over all hosts (Figure 4-4's metric).
  SimDuration TotalNetMsgBusy() const;

 private:
  struct HostParts {
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<Disk> disk;
    std::unique_ptr<PhysicalMemory> memory;
    std::unique_ptr<Pager> pager;
    std::unique_ptr<PageService> page_service;
    std::unique_ptr<NetMsgServer> netmsg;
    std::unique_ptr<HostEnv> env;
    std::unique_ptr<MigrationManager> manager;
  };

  TestbedConfig config_;
  Simulator sim_;
  SegmentTable segments_;
  TrafficRecorder traffic_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<PageDirectory> page_directory_;
  Network network_;
  IpcFabric fabric_;
  NetMsgDirectory directory_;
  std::vector<HostParts> hosts_;
  std::unique_ptr<FileServer> checkpoint_store_;
};

}  // namespace accent

#endif  // SRC_EXPERIMENTS_TESTBED_H_
