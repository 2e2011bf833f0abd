// The migration cost formulas, in one place.
//
// The mechanistic testbed charges excision and insertion event by event
// (src/proc/excise.cc), pricing each live process by its FootprintOf. The
// fleet-scale cluster layer (src/experiments/cluster.cc) simulates
// hundreds of hosts and thousands of processes, where materialising every
// address space would drown the point of the experiment; it describes each
// process by a drawn Footprint instead. Both charge these helpers, so the
// fleet model and the calibrated two-Perq one share one set of formulas: a
// constant retuned in costs.h moves both.
#ifndef SRC_MIGRATION_COST_MODEL_H_
#define SRC_MIGRATION_COST_MODEL_H_

#include <cstdint>

#include "src/base/types.h"
#include "src/host/calibration.h"
#include "src/host/costs.h"
#include "src/migration/strategy.h"

namespace accent {

struct MigrationCostModel {
  // What the formulas need to know about one process's address space.
  struct Footprint {
    std::int64_t map_entries = 0;     // validated regions
    std::int64_t real_pages = 0;      // RealMem pages (memory or disk)
    std::int64_t resident_pages = 0;  // the in-core working set
  };

  // Excision phase 1: AMap construction, the walk of process + system maps.
  static SimDuration ExciseAmapCost(const CostTable& costs, const Footprint& fp) {
    return costs.amap_base + costs.amap_per_map_entry * fp.map_entries +
           costs.amap_per_real_page * fp.real_pages;
  }

  // Excision phase 2: collapse of process memory into the RIMAS chunk.
  static SimDuration ExciseRimasCost(const CostTable& costs, const Footprint& fp) {
    return costs.rimas_base + costs.rimas_per_map_entry * fp.map_entries +
           costs.rimas_per_resident_page * fp.resident_pages;
  }

  // Excision: AMap construction + RIMAS collapse + port/PCB packaging
  // (the three phases ExciseProcess charges, summed).
  static SimDuration ExciseCost(const CostTable& costs, const Footprint& fp) {
    return ExciseAmapCost(costs, fp) + ExciseRimasCost(costs, fp) + costs.excise_other;
  }

  // Insertion at the destination; `data_pages` is the count shipped
  // physically in the RIMAS (InsertProcess charges only those).
  static SimDuration InsertCost(const CostTable& costs, std::int64_t map_entries,
                                std::int64_t data_pages) {
    return costs.insert_base + costs.insert_per_map_entry * map_entries +
           costs.insert_per_resident_page * data_pages;
  }

  // Pages a strategy ships physically in the RIMAS; the rest ride as IOUs.
  static std::int64_t ShippedPages(TransferStrategy strategy, const Footprint& fp) {
    switch (strategy) {
      case TransferStrategy::kPureCopy:
        return fp.real_pages;
      case TransferStrategy::kPureIou:
        return 0;
      case TransferStrategy::kResidentSet:
        return fp.resident_pages < fp.real_pages ? fp.resident_pages : fp.real_pages;
      case TransferStrategy::kPreCopy:
        // Everything arrives physically by resumption (rounds + flash); the
        // analytic layers charge the re-shipped dirty overhead separately.
        return fp.real_pages;
    }
    return 0;
  }

  // Pages owed after the transfer — the copy-on-reference debt repaid by
  // later page pulls.
  static std::int64_t OwedPages(TransferStrategy strategy, const Footprint& fp) {
    return fp.real_pages - ShippedPages(strategy, fp);
  }

  // Wire size of the Core message: microstate/PCB context plus the eagerly
  // shipped AMap.
  static ByteCount CorePayloadBytes(const CostTable& costs, std::int64_t map_entries) {
    return costs.core_context_bytes +
           costs.amap_entry_bytes * static_cast<ByteCount>(map_entries);
  }

  // Wire size of the RIMAS message: shipped page bytes plus one
  // consolidated IOU descriptor whenever any memory is owed.
  static ByteCount RimasPayloadBytes(const CostTable& costs, TransferStrategy strategy,
                                     const Footprint& fp) {
    const std::int64_t shipped = ShippedPages(strategy, fp);
    ByteCount bytes = static_cast<ByteCount>(shipped) * kPageSize;
    if (OwedPages(strategy, fp) > 0) {
      bytes += costs.iou_descriptor_bytes;
    }
    return bytes;
  }

  // Page-pull protocol sizes (the kFaultData request/reply pair a batch of
  // owed pages rides on).
  static ByteCount PullRequestBytes(const CostTable& costs) {
    return costs.fault_request_bytes;
  }
  static ByteCount PullReplyBytes(const CostTable& costs, std::int64_t pages) {
    return costs.fault_reply_header_bytes + static_cast<ByteCount>(pages) * kPageSize;
  }

  // ---- content-addressed page service (docs/INTERNALS.md section 15) -----
  // A hash-probe request is the classic pull request plus one content hash
  // per page. Both fault-walk tiers pay it: a kConfirm probe to the origin
  // and a kCachePull to a holder.
  static ByteCount HashProbeRequestBytes(const CostTable& costs, std::int64_t pages) {
    return costs.fault_request_bytes +
           costs.page_hash_bytes * static_cast<ByteCount>(pages);
  }
  // A confirm ack (or a holder's miss reply): the small answer that rides
  // back instead of the payload when the destination already has the bytes.
  static ByteCount HashConfirmBytes(const CostTable& costs) {
    return costs.cache_confirm_bytes;
  }

  // ---- durable checkpoint store (docs/INTERNALS.md section 16) -----------
  // A checkpoint put ships the Core context alongside the image pages (the
  // page bytes themselves ride as the message's data regions and are
  // charged by the wire model from the region payload).
  static ByteCount CheckpointPutBytes(const CostTable& costs) {
    return costs.fault_request_bytes + costs.core_context_bytes;
  }
  // The store's put ack and a restore request are both small control
  // messages.
  static ByteCount CheckpointAckBytes(const CostTable& costs) {
    return costs.cache_confirm_bytes;
  }
  static ByteCount CheckpointGetBytes(const CostTable& costs) {
    return costs.fault_request_bytes;
  }
  // A restore reply re-ships the Core context plus the store's consolidated
  // IOU descriptor; materialized pages ride as data regions on top.
  static ByteCount CheckpointGetReplyBytes(const CostTable& costs) {
    return costs.core_context_bytes + costs.iou_descriptor_bytes;
  }

  // ---- heterogeneous calibrations ----------------------------------------
  // The *On variants charge the same formulas on a specific host: CPU-bound
  // phases divide by that host's speed multiplier (excision runs on the
  // source, insertion on the destination — the asymmetry is the whole point
  // of calibrating per host). Identity calibrations reproduce the
  // homogeneous results exactly (ScaleCpu's 1.0 fast path).

  static SimDuration ExciseCostOn(const CostTable& costs, const Footprint& fp,
                                  const HostCalibration& source) {
    return ScaleCpu(ExciseCost(costs, fp), source.cpu_multiplier);
  }

  static SimDuration InsertCostOn(const CostTable& costs, std::int64_t map_entries,
                                  std::int64_t data_pages, const HostCalibration& dest) {
    return ScaleCpu(InsertCost(costs, map_entries, data_pages), dest.cpu_multiplier);
  }

  // Time `bytes` spend on the sender's egress link: serialization at the
  // link's (calibrated) bandwidth plus its (calibrated) propagation latency.
  static SimDuration WireCost(const CostTable& costs, ByteCount bytes,
                              const HostCalibration& sender) {
    const double bps = costs.wire_bytes_per_sec * sender.wire_bandwidth_multiplier;
    const auto serialize =
        SimDuration(static_cast<std::int64_t>(static_cast<double>(bytes) / bps * 1e6));
    return serialize + ScaleLatency(costs.wire_latency, sender.wire_latency_multiplier);
  }

  // Predicted freeze-and-flash downtime if a pre-copy migration froze now
  // with `dirty_pages` left to ship: excise on the source, Core plus the
  // final dirty pages on the source's egress link, insertion of those pages
  // at the destination. The manager evaluates this after every acknowledged
  // round against the target-downtime SLO (docs/INTERNALS.md §13).
  static SimDuration PreCopyCostOn(const CostTable& costs, const Footprint& fp,
                                   std::int64_t dirty_pages, const HostCalibration& source,
                                   const HostCalibration& dest) {
    const ByteCount wire_bytes = CorePayloadBytes(costs, fp.map_entries) +
                                 static_cast<ByteCount>(dirty_pages) * kPageSize;
    return ExciseCostOn(costs, fp, source) + WireCost(costs, wire_bytes, source) +
           InsertCostOn(costs, fp.map_entries, dirty_pages, dest);
  }

  // End-to-end relocation estimate for victim/destination scoring: excise
  // on the source, Core + RIMAS on the source's egress link, insert on the
  // destination. This is what makes anchor scoring use the *destination's*
  // costs — a slow-CPU destination inflates every candidate's estimate.
  static SimDuration RelocationCost(const CostTable& costs, TransferStrategy strategy,
                                    const Footprint& fp, const HostCalibration& source,
                                    const HostCalibration& dest) {
    const std::int64_t shipped = ShippedPages(strategy, fp);
    const ByteCount wire_bytes =
        CorePayloadBytes(costs, fp.map_entries) + RimasPayloadBytes(costs, strategy, fp);
    return ExciseCostOn(costs, fp, source) + WireCost(costs, wire_bytes, source) +
           InsertCostOn(costs, fp.map_entries, shipped, dest);
  }
};

}  // namespace accent

#endif  // SRC_MIGRATION_COST_MODEL_H_
