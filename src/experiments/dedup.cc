#include "src/experiments/dedup.h"

#include <memory>
#include <utility>

#include "src/base/check.h"
#include "src/experiments/scenario.h"
#include "src/experiments/testbed.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// Generous per-round horizon; a single migration finishes in simulated
// minutes, so a round that approaches this is wedged, not slow.
constexpr SimDuration kRoundHorizon = Sec(3600.0);

}  // namespace

std::vector<HostCalibration> DedupFleetCalibrations(int host_count) {
  // Identity origin, then a cycle of mild asymmetries: a faster CPU, a
  // lower-bandwidth link, a higher-latency link. All disk-ful — backing
  // anchoring is not under test here — and all distinct enough that the
  // directory's WireCost ranks genuinely differ.
  std::vector<HostCalibration> cals(static_cast<std::size_t>(host_count));
  for (int i = 1; i < host_count; ++i) {
    HostCalibration& cal = cals[static_cast<std::size_t>(i)];
    switch (i % 3) {
      case 1:
        cal.cpu_multiplier = 1.25;
        break;
      case 2:
        cal.wire_bandwidth_multiplier = 0.75;
        break;
      default:
        cal.wire_latency_multiplier = 1.5;
        break;
    }
  }
  return cals;
}

DedupResult RunDedupExperiment(const DedupConfig& config) {
  const FuzzScenario& spec = config.spec;
  ACCENT_EXPECTS(spec.host_count >= 2);
  ACCENT_EXPECTS(config.repeats >= 1);

  // Same (spec, seed) every round: bit-identical page contents, which is
  // exactly what makes the content addresses collide across incarnations.
  // One image serves the reference and every round.
  const WorkloadImage image = BuildWorkloadImage(WorkloadByName(spec.workload), spec.seed);

  // Page contents never depend on migration, the cache plane or
  // calibration, so the contents the unmigrated process ends with, folded
  // from the image without staging it, pin what every incarnation must
  // observe.
  const std::uint64_t reference = ReferenceChecksum(spec.workload, spec.seed, &image);

  Testbed bed(TestbedConfigOf(spec));
  bed.SetPrefetch(spec.prefetch);

  DedupResult result;
  result.config = config;
  result.drained = true;

  // Every incarnation stays alive for the whole experiment: an excised
  // source process still owns its staging structures, and owed pages keep
  // referencing the simulation-global segment table.
  std::vector<WorkloadInstance> instances;
  instances.reserve(static_cast<std::size_t>(config.repeats));

  const SegmentBacker& origin = bed.netmsg(0)->backer();
  std::uint64_t origin_payload_prev = origin.pages_served();
  ByteCount wire_prev = bed.traffic().TotalBytes();

  for (int round = 0; round < config.repeats; ++round) {
    const int dest = 1 + round % (spec.host_count - 1);
    const PagerStats dest_prev = bed.pager(dest)->stats();

    instances.push_back(
        BuildWorkload(WorkloadByName(spec.workload), bed.host(0), spec.seed, &image));
    WorkloadInstance& instance = instances.back();
    Process* proc = instance.process.get();
    bed.manager(0)->RegisterLocal(proc);

    Process* landed = nullptr;
    bed.manager(dest)->set_on_insert([&landed](Process* inserted) { landed = inserted; });

    bool migrated = false;
    bed.manager(0)->Migrate(proc, bed.manager(dest)->port(), spec.strategy,
                            [&migrated](const MigrationRecord&) { migrated = true; });
    if (!bed.RunGuarded(kRoundHorizon)) {
      result.drained = false;
      break;
    }
    ACCENT_CHECK(migrated && landed != nullptr)
        << " dedup round " << round << " never landed on host " << dest;
    ACCENT_CHECK(landed->done())
        << " dedup round " << round << " did not finish at host " << dest;

    const PagerStats dest_now = bed.pager(dest)->stats();
    DedupRound row;
    row.round = round;
    row.dest_host = dest;
    row.payload_pages = dest_now.imag_pages_fetched - dest_prev.imag_pages_fetched;
    row.confirmed_pages = dest_now.cache_pages_confirmed - dest_prev.cache_pages_confirmed;
    row.holder_pages =
        dest_now.cache_pages_from_holders - dest_prev.cache_pages_from_holders;
    row.faulted_pages = row.payload_pages + row.confirmed_pages;
    row.origin_payload_pages = origin.pages_served() - origin_payload_prev;
    origin_payload_prev = origin.pages_served();
    row.wire_bytes = bed.traffic().TotalBytes() - wire_prev;
    wire_prev = bed.traffic().TotalBytes();
    row.integrity_ok =
        ObservableChecksum(*landed->space(), bed.segments(), instance.planned_touches) ==
        reference;
    if (!row.integrity_ok) {
      ++result.integrity_failures;
    }

    result.faulted_pages += row.faulted_pages;
    result.origin_payload_pages += row.origin_payload_pages;
    result.wire_bytes += row.wire_bytes;
    result.rounds.push_back(row);
  }
  result.offloaded_pages = result.faulted_pages - result.origin_payload_pages;

  for (int i = 0; i < bed.host_count(); ++i) {
    result.integrity_failures += bed.pager(i)->stats().cache_hash_rejects;
    if (PageService* service = bed.page_service(i)) {
      const ContentCacheStats& stats = service->cache().stats();
      result.cache_hits += stats.hits;
      result.cache_misses += stats.misses;
      result.cache_insertions += stats.insertions;
      result.cache_evictions += stats.evictions;
      result.integrity_failures += stats.hash_mismatches;
    }
    result.integrity_failures += bed.netmsg(i)->backer().confirm_mismatches();
  }
  return result;
}

Json DedupResultToJson(const DedupResult& result) {
  const FuzzScenario& spec = result.config.spec;
  Json json = Json::Object{};
  json["workload"] = Json(spec.workload);
  json["strategy"] = Json(StrategyName(spec.strategy));
  json["prefetch"] = Json(static_cast<std::int64_t>(spec.prefetch));
  json["seed"] = Json(spec.seed);
  json["hosts"] = Json(spec.host_count);
  json["repeats"] = Json(result.config.repeats);
  json["content_cache"] = Json(spec.content_cache);
  json["content_cache_pages"] = Json(spec.content_cache_pages);
  json["calibrated"] = Json(AnyCalibrated(spec.calibrations));

  json["drained"] = Json(result.drained);
  json["faulted_pages"] = Json(result.faulted_pages);
  json["origin_payload_pages"] = Json(result.origin_payload_pages);
  json["offloaded_pages"] = Json(result.offloaded_pages);
  json["origin_offload_ratio"] = Json(result.OriginOffloadRatio());
  json["wire_bytes"] = Json(result.wire_bytes);
  json["cache_hits"] = Json(result.cache_hits);
  json["cache_misses"] = Json(result.cache_misses);
  json["cache_insertions"] = Json(result.cache_insertions);
  json["cache_evictions"] = Json(result.cache_evictions);
  json["integrity_failures"] = Json(result.integrity_failures);

  Json::Array rounds;
  for (const DedupRound& row : result.rounds) {
    Json entry = Json::Object{};
    entry["round"] = Json(row.round);
    entry["dest_host"] = Json(row.dest_host);
    entry["faulted_pages"] = Json(row.faulted_pages);
    entry["payload_pages"] = Json(row.payload_pages);
    entry["origin_payload_pages"] = Json(row.origin_payload_pages);
    entry["confirmed_pages"] = Json(row.confirmed_pages);
    entry["holder_pages"] = Json(row.holder_pages);
    entry["wire_bytes"] = Json(row.wire_bytes);
    entry["integrity_ok"] = Json(row.integrity_ok);
    rounds.push_back(std::move(entry));
  }
  json["rounds"] = Json(std::move(rounds));
  return json;
}

}  // namespace accent
