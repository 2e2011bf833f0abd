// Repeated-image dedup trials: the content-addressed page service's
// headline experiment.
//
// The same Table 4-1 program migrates N times from one origin host across a
// calibrated fleet (destinations round-robin over the other hosts). Every
// incarnation carries byte-identical pages, so after the first migration has
// paid full freight the cluster already holds the content: later faults are
// answered by the destination's own ContentCache (a confirm ack instead of
// payload) or by the nearest holder — and the origin SegmentBacker, the
// paper's §5 bottleneck, drops out of the fault path. The experiment
// measures exactly that: the origin-offload ratio, the bytes-on-wire saving
// against a cache-off run of the identical schedule, per-host cache hit
// rates, and end-to-end integrity of every migrated incarnation.
#ifndef SRC_EXPERIMENTS_DEDUP_H_
#define SRC_EXPERIMENTS_DEDUP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/types.h"
#include "src/experiments/scenario.h"
#include "src/host/calibration.h"
#include "src/migration/strategy.h"

namespace accent {

struct DedupConfig {
  // The program, its strategy and the fleet: host 0 is the origin;
  // migration i lands on host 1 + (i % (host_count - 1)), so `dest` and the
  // wire's fault fields do not apply. The content cache on is the
  // experiment; off reproduces the classic protocol exactly, the bench's
  // bytes-on-wire baseline. The bench runs the mildly heterogeneous fleet
  // from DedupFleetCalibrations so NearestHolder's link-cost ranking is
  // exercised, not just defaulted.
  FuzzScenario spec = {
      .host_count = 4, .strategy = TransferStrategy::kPureIou, .content_cache = true};
  int repeats = 8;
};

// One migration of the repeated sequence, all counters as deltas against
// the previous round.
struct DedupRound {
  int round = 0;      // 0-based
  int dest_host = 0;  // host index the process landed on
  std::uint64_t faulted_pages = 0;        // payload + confirmed at the dest
  std::uint64_t payload_pages = 0;        // crossed the wire as page data
  std::uint64_t origin_payload_pages = 0; // of those, served by the origin
  std::uint64_t confirmed_pages = 0;      // local cache hits (ack, no payload)
  std::uint64_t holder_pages = 0;         // payload served by a nearer holder
  ByteCount wire_bytes = 0;               // all traffic this round
  bool integrity_ok = false;              // touched checksum == reference
};

struct DedupResult {
  DedupConfig config;
  bool drained = false;  // every round's event queue emptied

  std::vector<DedupRound> rounds;

  // Totals over all rounds.
  std::uint64_t faulted_pages = 0;
  std::uint64_t origin_payload_pages = 0;
  std::uint64_t offloaded_pages = 0;  // faulted - origin payload
  ByteCount wire_bytes = 0;

  // Cache plane health, summed over every host's ContentCache.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;

  // Identity discipline: forged-insert rejections + holder payloads whose
  // bytes did not hash to the shipped identity + origin confirm mismatches +
  // any round whose touched checksum diverged from the reference. The bench
  // gates on this staying 0.
  std::uint64_t integrity_failures = 0;

  // Fraction of faulted pages the origin did NOT serve as payload.
  double OriginOffloadRatio() const {
    return faulted_pages == 0
               ? 0.0
               : static_cast<double>(offloaded_pages) / static_cast<double>(faulted_pages);
  }
};

// The bench's mildly heterogeneous 4-host fleet: identity origin, a faster
// CPU, a slower link and a higher-latency link, so holder ranking has real
// distances to compare.
std::vector<HostCalibration> DedupFleetCalibrations(int host_count);

// Runs the repeated-migration sequence on one testbed, built from the spec
// as RunMech builds its own (TestbedConfigOf). The rounds share that
// testbed, and with it one live content cache, so a round is not a spec
// run. Deterministic per config.
DedupResult RunDedupExperiment(const DedupConfig& config);

// Canonical JSON for one run (sorted keys, exact integers).
Json DedupResultToJson(const DedupResult& result);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_DEDUP_H_
