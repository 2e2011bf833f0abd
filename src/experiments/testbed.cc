#include "src/experiments/testbed.h"

#include "src/base/logging.h"
#include "src/migration/cost_model.h"

namespace accent {

Testbed::Testbed(const TestbedConfig& config)
    : config_(config),
      segments_(&sim_),
      traffic_(&sim_, kTrafficBucket),
      network_(&sim_, &config_.costs, &traffic_),
      fabric_(&sim_, &config_.costs) {
  ACCENT_EXPECTS(config_.host_count >= 1);
  ACCENT_EXPECTS(config_.calibrations.empty() ||
                 config_.calibrations.size() == static_cast<std::size_t>(config_.host_count))
      << " calibrations must cover every host";
  sim_.set_tracer(config_.tracer);
  if (!config_.calibrations.empty()) {
    network_.SetHostCalibrations(config_.calibrations);
  }
  if (config_.content_cache) {
    ACCENT_EXPECTS(config_.content_cache_pages >= 1);
    page_directory_ = std::make_unique<PageDirectory>(config_.costs.wire_latency);
  }
  const bool faulty = config_.fault_plan.enabled();
  const bool reliable = faulty || config_.reliable_transport;
  if (faulty) {
    fault_ = std::make_unique<FaultInjector>(config_.fault_plan, config_.fault_seed);
    network_.set_fault_injector(fault_.get());
  }
  hosts_.reserve(static_cast<std::size_t>(config_.host_count));
  for (int i = 0; i < config_.host_count; ++i) {
    const HostId id(static_cast<std::uint64_t>(i) + 1);
    const HostCalibration cal = CalibrationOf(config_.calibrations, static_cast<std::size_t>(i));
    cal.Validate();
    HostParts parts;
    parts.cpu = std::make_unique<Cpu>(&sim_, id);
    if (cal.cpu_multiplier != 1.0) {
      parts.cpu->set_speed_multiplier(cal.cpu_multiplier);
    }
    parts.disk = std::make_unique<Disk>(&sim_, &config_.costs);
    if (cal.diskless) {
      // Every paging request crosses the wire to a file server: a request+
      // reply of link latency plus serializing each page at link bandwidth.
      const SimDuration round_trip =
          ScaleLatency(config_.costs.wire_latency, cal.wire_latency_multiplier) * 2;
      const double bps = config_.costs.wire_bytes_per_sec * cal.wire_bandwidth_multiplier;
      const auto per_page = SimDuration(
          static_cast<std::int64_t>(static_cast<double>(kPageSize) / bps * 1e6));
      parts.disk->ConfigureRemote(round_trip, per_page);
    }
    parts.memory = std::make_unique<PhysicalMemory>(config_.frames_per_host);
    fabric_.RegisterHost(id, parts.cpu.get());

    parts.pager = std::make_unique<Pager>(id, &sim_, &config_.costs, &fabric_, parts.disk.get(),
                                          parts.memory.get());
    parts.pager->Start();

    parts.netmsg = std::make_unique<NetMsgServer>(id, &sim_, &config_.costs, &fabric_, &network_,
                                                  &segments_, &directory_);
    parts.netmsg->Start();
    if (page_directory_ != nullptr) {
      parts.page_service = std::make_unique<PageService>(id, page_directory_.get(),
                                                         config_.content_cache_pages);
      parts.pager->set_page_service(parts.page_service.get());
      parts.netmsg->set_page_service(parts.page_service.get());
      page_directory_->SetServicePort(id, parts.pager->port());
      // Rank holders by this host's calibrated egress cost for one page, so
      // NearestHolder prefers the cheapest link into the cluster.
      page_directory_->SetHostRank(
          id, static_cast<double>(
                  MigrationCostModel::WireCost(config_.costs, kPageSize, cal).count()));
    }
    parts.netmsg->set_iou_caching(config_.iou_caching);
    if (reliable) {
      parts.netmsg->set_reliable(true);
      parts.pager->set_fetch_timeout_enabled(true);
    }

    parts.env = std::make_unique<HostEnv>();
    parts.env->id = id;
    parts.env->sim = &sim_;
    parts.env->costs = &config_.costs;
    parts.env->fabric = &fabric_;
    parts.env->cpu = parts.cpu.get();
    parts.env->disk = parts.disk.get();
    parts.env->memory = parts.memory.get();
    parts.env->pager = parts.pager.get();
    parts.env->netmsg = parts.netmsg.get();
    parts.env->segments = &segments_;
    parts.env->diskless = cal.diskless;
    parts.env->calibration = cal;

    parts.manager = std::make_unique<MigrationManager>(parts.env.get());
    parts.manager->Start();

    hosts_.push_back(std::move(parts));
  }

  if (config_.checkpoint_store) {
    // Place the store: an explicit 1-based host, or the first host that can
    // anchor file backing (diskless hosts cannot — their migrations
    // checkpoint to this *remote* store instead).
    int store_index = -1;
    if (config_.checkpoint_host > 0) {
      ACCENT_EXPECTS(config_.checkpoint_host <= config_.host_count);
      store_index = config_.checkpoint_host - 1;
      ACCENT_CHECK(!hosts_[static_cast<std::size_t>(store_index)].env->diskless)
          << " checkpoint store pinned to a diskless host";
    } else {
      for (int i = 0; i < config_.host_count; ++i) {
        if (!hosts_[static_cast<std::size_t>(i)].env->diskless) {
          store_index = i;
          break;
        }
      }
      ACCENT_CHECK(store_index >= 0)
          << " every host is diskless; nothing can anchor the checkpoint store";
    }
    checkpoint_store_ =
        std::make_unique<FileServer>(hosts_[static_cast<std::size_t>(store_index)].env.get());
    checkpoint_store_->Start();
    for (HostParts& parts : hosts_) {
      parts.manager->set_checkpoint_store(checkpoint_store_->port());
    }
  }
}

Testbed::~Testbed() = default;

HostEnv* Testbed::host(int index) {
  ACCENT_EXPECTS(index >= 0 && index < host_count());
  return hosts_[static_cast<std::size_t>(index)].env.get();
}

MigrationManager* Testbed::manager(int index) {
  ACCENT_EXPECTS(index >= 0 && index < host_count());
  return hosts_[static_cast<std::size_t>(index)].manager.get();
}

NetMsgServer* Testbed::netmsg(int index) {
  ACCENT_EXPECTS(index >= 0 && index < host_count());
  return hosts_[static_cast<std::size_t>(index)].netmsg.get();
}

Pager* Testbed::pager(int index) {
  ACCENT_EXPECTS(index >= 0 && index < host_count());
  return hosts_[static_cast<std::size_t>(index)].pager.get();
}

Cpu* Testbed::cpu(int index) {
  ACCENT_EXPECTS(index >= 0 && index < host_count());
  return hosts_[static_cast<std::size_t>(index)].cpu.get();
}

PageService* Testbed::page_service(int index) {
  ACCENT_EXPECTS(index >= 0 && index < host_count());
  return hosts_[static_cast<std::size_t>(index)].page_service.get();
}

void Testbed::SetPrefetch(std::uint32_t pages) {
  for (HostParts& parts : hosts_) {
    parts.pager->set_prefetch_pages(pages);
  }
}

SimDuration Testbed::TotalNetMsgBusy() const {
  SimDuration total{0};
  for (const HostParts& parts : hosts_) {
    total += parts.cpu->BusyTime(CpuWork::kNetMsgServer);
  }
  return total;
}

bool Testbed::RunGuarded(SimDuration limit) {
  if (sim_.RunUntil(sim_.Now() + limit)) {
    return true;
  }
  ACCENT_LOG(kError) << "testbed: event queue not drained after " << limit.count()
                     << "us of simulated time; " << sim_.pending_events() << " events pending";
  for (SimTime when : sim_.PendingEventTimes(8)) {
    ACCENT_LOG(kError) << "testbed:   pending event at t=" << when.count() << "us";
  }
  return false;
}

}  // namespace accent
