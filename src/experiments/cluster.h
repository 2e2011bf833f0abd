// Fleet-scale cluster trials: the ROADMAP's datacenter-row north star.
//
// The paper migrates one process between two Perqs; this layer simulates
// N hosts (a switched row, Network::ConfigureSwitched) under continuous
// churn — Poisson process arrivals with exponential service demands — and
// lets a balancer drive migrations for the whole run instead of firing one
// and stopping. Hosts are modelled at fleet granularity: a process is a
// CPU demand plus a MigrationCostModel::Footprint, scheduled by a
// processor-sharing approximation (each resident process holds one pending
// quantum-slice event whose length stretches with the host's runnable
// count). Migration costs, payload sizes and the copy-on-reference debt
// all come from the same calibrated formulas the two-Perq testbed charges
// (src/migration/cost_model.h), so the fleet inherits the paper's numbers.
//
// Control plane: host index 0 doubles as the balancer coordinator. Every
// host ships periodic load reports over the wire (kControl); the
// coordinator applies the shared ImbalanceGovernor (threshold +
// hysteresis) to the freshest spread, picks the busiest source and idlest
// target it has not already tasked, and sends the source a migration
// directive. The source picks its cheapest victim by the dispersal-aware
// AnchorBytes metric, freezes it, excises, ships Core + RIMAS, and the
// destination inserts and reports completion. IOU strategies leave owed
// pages behind, repaid lazily in fixed page-pull batches (kFaultData
// request/reply) while the process runs at its new home.
//
// Determinism: every stochastic draw flows through per-host Rng streams,
// all cross-host interaction rides Network::Transmit, the trial runs on
// the one serial Simulator loop, and end-of-run aggregation walks hosts in
// index order. A trial's ClusterResult — and its canonical JSON — is
// therefore a pure function of its config (tests/cluster_test.cc pins
// four of them).
#ifndef SRC_EXPERIMENTS_CLUSTER_H_
#define SRC_EXPERIMENTS_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/types.h"
#include "src/host/calibration.h"
#include "src/migration/strategy.h"
#include "src/policy/load_balancer.h"

namespace accent {

struct ClusterConfig {
  int host_count = 24;
  std::uint64_t seed = 42;
  SimDuration duration = Sec(120.0);

  // Unread: every trial runs on the serial event loop. Kept only because
  // perfbench/perfbench.cc:364-365 still assigns both; they go with the
  // next change to the benchmark.
  int shards = 0;
  int shard_threads = 1;

  // Workload churn. Each host starts with `initial_processes_per_host`
  // and receives a Poisson stream of arrivals; demands are exponential.
  int initial_processes_per_host = 4;
  double arrivals_per_host_per_sec = 0.25;
  double mean_service_sec = 20.0;
  SimDuration quantum = Ms(40);

  // Footprint distribution (uniform draws per process).
  std::int64_t min_real_pages = 64;
  std::int64_t max_real_pages = 1024;
  std::int64_t min_map_entries = 8;
  std::int64_t max_map_entries = 40;

  // Control plane.
  SimDuration report_period = Sec(1.0);
  PolicyConfig policy;
  std::int64_t pull_batch_pages = 16;

  // Content-addressed page service, fleet model (docs/INTERNALS.md §15).
  // Off by default — byte-identical to the classic engine. When on, every
  // process belongs to one of `binary_classes` program images and
  // `shared_fraction` of its pages are content-identical across its class;
  // a destination whose per-host cache (content_cache_pages, class-LRU)
  // already holds image pages answers that portion of a pull batch with a
  // small confirm ack instead of payload. All cache state lives on the
  // destination host.
  bool content_cache = false;
  std::int64_t content_cache_pages = 8192;
  int binary_classes = 6;
  double shared_fraction = 0.5;

  // Per-host calibrations (entry i calibrates host index i). Empty — the
  // default — is the homogeneous row, byte-identical to the uncalibrated
  // engine; otherwise the vector must cover every host. Calibrations bend
  // the same formulas everywhere: slices stretch by the host's CPU speed,
  // excise/insert run at the source's/destination's speed, wire legs ride
  // the sender's link, victim scoring switches to the end-to-end
  // RelocationCost (so a slow destination inflates every candidate), and a
  // diskless source degrades owed-page strategies to pure-copy rather than
  // anchor backing it cannot serve.
  std::vector<HostCalibration> calibrations{};

  // Steady-state detection: consecutive `steady_windows` windows of
  // `steady_window` whose mean total-runnable drifts by <= steady_tolerance
  // (relative) mark the fleet steady; throughput is measured from there.
  SimDuration steady_window = Sec(10.0);
  int steady_windows = 3;
  double steady_tolerance = 0.15;

  // Hang watchdog: the trial aborts (hung = true) once this many events
  // execute. 0 derives a generous budget from the configuration.
  std::uint64_t max_events = 0;
};

struct ClusterResult {
  ClusterConfig config;

  // Census. arrived = initial + churn arrivals; the books balance when
  // arrived == completed + resident_end + migrations still in flight
  // (outbound_started - inbound_landed).
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t resident_end = 0;
  std::uint64_t outbound_started = 0;
  std::uint64_t inbound_landed = 0;
  bool census_ok = false;

  // Migration data plane.
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t directives_unfilled = 0;  // source had no eligible victim
  std::uint64_t pull_batches = 0;
  std::uint64_t pages_pulled = 0;
  // Content-cache counters (all zero with content_cache off).
  // pages_deduped: owed pages answered by confirm acks instead of payload;
  // the dedup bench derives its bytes-on-wire saving from these.
  std::uint64_t pages_deduped = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  // Heterogeneous-row counters. diskless_backing_anchors counts owed-page
  // debts anchored on a diskless host — the invariant is that it stays 0;
  // diskless_copy_forced counts the strategy degradations that keep it so.
  std::uint64_t diskless_copy_forced = 0;
  std::uint64_t diskless_backing_anchors = 0;

  // Latency tails (microseconds of simulated time).
  SimDuration queueing_p50{0};  // completion sojourn minus CPU demand
  SimDuration queueing_p99{0};
  SimDuration downtime_p50{0};  // migration freeze -> resume window
  SimDuration downtime_p99{0};

  // Steady state + throughput.
  bool steady_detected = false;
  SimTime steady_at{0};
  double steady_migrations_per_sec = 0.0;

  // Engine counters; they double as determinism checks.
  std::uint64_t events_executed = 0;
  std::uint64_t transmissions = 0;
  ByteCount wire_bytes = 0;
  std::uint64_t samples_taken = 0;

  bool hung = false;
};

// Runs one fleet trial to completion (or its watchdog budget).
ClusterResult RunClusterTrial(const ClusterConfig& config);

// Canonical JSON for one trial. Excludes the unread shard fields and any
// wall-clock quantity on purpose: two runs of the same config serialise
// byte-identically.
Json ClusterResultToJson(const ClusterResult& result);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_CLUSTER_H_
